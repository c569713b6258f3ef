"""Spans and counters around calls into ``repro.core``, installed from outside.

Every caller in ``repro.core`` binds its callees with ``from ... import``,
so a wrapper replaces the name in the *calling* module (or the method on
the class); wrapping only the defining module would time nothing.

A span is ``[name, start, end, parent, qid, light]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``qid`` the query being
served, ``light`` the time spent in light callbacks called directly
inside it. Light callbacks (neighbour lookups, visit filters) run too
often to record one span each; their time and call count are summed
instead. A span's self time is its duration minus its child spans and
its light callbacks.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.qid: str | None = None
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self._t0 = _clock()

    # ------------------------------------------------------------ recording
    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(seconds, args, result)`` runs
        once the span has closed."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1][6] if stack else -1, self.qid,
                   0.0, len(spans)]
            spans.append(rec)
            stack.append(rec)
            rec[1] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if after is not None:
                after(rec[2] - rec[1], args, out)
            return out

        return wrapper

    def light(self, name, fn, after=None):
        """``fn`` wrapped as a light callback: summed into ``<name>.s`` and
        ``<name>.calls``; ``after(args, result)`` runs after each call."""
        counts, stack = self.counts, self._stack

        def wrapper(*args):
            t0 = _clock()
            out = fn(*args)
            dt = _clock() - t0
            counts[name + ".s"] += dt
            counts[name + ".calls"] += 1
            if stack:
                stack[-1][5] += dt
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # ------------------------------------------------------------- patching
    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`."""
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------- summaries
    def times(self, first: int = 0) -> tuple[dict, dict, dict]:
        """Per span name: total seconds, self seconds and call count, over
        the spans recorded from index ``first`` on."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        total: defaultdict[str, float] = defaultdict(float)
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for s, c in zip(self.spans[first:], child[first:]):
            total[s[0]] += s[2] - s[1]
            self_s[s[0]] += s[2] - s[1] - c - s[5]
            calls[s[0]] += 1
        return dict(total), dict(self_s), dict(calls)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s[0], "start": s[1] - self._t0,
                    "end": s[2] - self._t0, "parent": s[3], "qid": s[4],
                }) + "\n")


# --------------------------------------------------------------- installers
def trace_build_kernels(tr: Tracer, layer_of: dict[tuple[int, int], int]) -> None:
    """Spans on the driver builder's kernels, as ``irange_build`` binds them.

    ``layer_of`` maps a segment's ``(lo, hi)`` ranks to its tree layer, so
    leaf builds (which get no ``Segment``) are attributed to their layer.
    Must be removed before a Spark build: cloudpickle would ship the
    wrappers, and this tracer with them, to the Python workers.
    """
    from repro.core import irange_build as ib

    c = tr.counts

    def per_layer(layer: int, dt: float) -> None:
        c[f"irange_build.layer{layer}.s"] += dt
        c[f"irange_build.layer{layer}.segments"] += 1

    def after_leaf(dt, args, out):
        ranks = args[0]
        per_layer(layer_of[(int(ranks[0]), int(ranks[-1]))], dt)

    def after_parent(dt, args, out):
        per_layer(args[0].layer, dt)

    def after_prune(dt, args, out):
        c["rng_prune.cand"] += len(args[1])
        c["rng_prune.kept"] += len(out)

    def after_case2(dt, args, out):
        c["irange_build.case2_search.scored"] += len(out[0])

    def case2(orig):
        traced = tr.span("irange_build.case2_search", orig, after_case2)

        def search(query, vectors, get_neighbors, entry_points, **kw):
            nbrs = tr.light("irange_build.child_nbrs", get_neighbors)
            return traced(query, vectors, nbrs, entry_points, **kw)

        return search

    tr.patch(ib, "build_leaf_segment",
             lambda f: tr.span("irange_build.build_leaf_segment", f, after_leaf))
    tr.patch(ib, "build_parent_segment",
             lambda f: tr.span("irange_build.build_parent_segment", f, after_parent))
    tr.patch(ib, "rng_prune", lambda f: tr.span("rng_prune", f, after_prune))
    tr.patch(ib, "brute_force_rng",
             lambda f: tr.span("rng_prune.brute_force_rng", f))
    tr.patch(ib, "beam_search", case2)


def trace_search(tr: Tracer) -> None:
    """Spans on the query path: the index and multi-attribute searches,
    Algorithm-1 edge selection, beam search and top-k, plus counters on
    the visit filter and result filter the search is handed."""
    from repro.core import irange_graph as ig
    from repro.core.multi_attr import MultiAttrIndex

    c = tr.counts

    def after_select(dt, args, out):
        c["irange_graph.select_edges.edges"] += len(out)

    def after_beam(dt, args, out):
        c["beam_search.scored"] += len(out[0])

    def after_visit(args, ok):
        c["multi_attr.visit.accepted"] += bool(ok)

    def after_keep(args, mask):
        c["multi_attr.keep.in"] += len(args[0])
        c["multi_attr.keep.kept"] += int(mask.sum())

    def search(orig):
        traced = tr.span("irange_graph.search", orig)

        def wrapper(index, query, lo, hi, **kw):
            if kw.get("visit_filter") is not None:
                kw["visit_filter"] = tr.light(
                    "multi_attr.visit", kw["visit_filter"], after_visit)
            if kw.get("result_keep") is not None:
                kw["result_keep"] = tr.light(
                    "multi_attr.keep", kw["result_keep"], after_keep)
            # The same test IRangeGraphIndex.search uses to scan the slice.
            clo, chi = max(1, lo), min(index.n, hi)
            if lo <= hi and chi - clo + 1 <= kw["beam"]:
                c["irange_graph.slice_scans"] += 1
                c["irange_graph.slice_rows"] += chi - clo + 1
            return traced(index, query, lo, hi, **kw)

        return wrapper

    tr.patch(ig.IRangeGraphIndex, "search", search)
    tr.patch(ig.IRangeGraphIndex, "select_edges",
             lambda f: tr.span("irange_graph.select_edges", f, after_select))
    tr.patch(ig, "beam_search", lambda f: tr.span("beam_search", f, after_beam))
    tr.patch(ig, "top_k", lambda f: tr.span("beam_search.top_k", f))
    tr.patch(MultiAttrIndex, "search",
             lambda f: tr.span("multi_attr.search", f))


class SparkProbe:
    """Per-layer Spark numbers of one ``build_irange_index`` call.

    The builder calls ``toPandas`` once to load the vectors, then per
    layer, deepest first: ``toPandas`` on the layer's job, then a driver
    round trip of the adjacency (``createDataFrame``, preceded after the
    first layer by ``toPandas`` of the previous merged adjacency). Each
    call runs in its own job group, so task counts come from the status
    tracker.
    """

    def __init__(self, tr: Tracer, spark, df_cls, layers: list[int]) -> None:
        self.tr, self.sc = tr, spark.sparkContext
        self._layers = list(layers)
        self._state = "load"  # then "job" / "roundtrip"
        self._layer = -1
        c = tr.counts

        def call(kind, orig):
            def wrapper(obj, *a, **kw):
                if kind == "toPandas" and self._state != "roundtrip":
                    if self._state == "load":
                        key, self._state = "load", "job"
                    else:
                        self._layer = self._layers.pop(0)
                        key, self._state = f"layer{self._layer}.job", "roundtrip"
                else:
                    key = f"layer{self._layer}.roundtrip"
                    if kind == "createDataFrame":
                        self._state = "job"
                self.sc.setJobGroup(f"perfbench.{key}", key)
                t0 = _clock()
                try:
                    return tr.span(f"spark.{kind}", orig)(obj, *a, **kw)
                finally:
                    c[f"spark.{key}_s"] += _clock() - t0
                    self.sc.setJobGroup("perfbench.other", "other")

            return wrapper

        tr.patch(df_cls, "toPandas", lambda f: call("toPandas", f))
        tr.patch(type(spark), "createDataFrame",
                 lambda f: call("createDataFrame", f))

    def tasks(self, key: str) -> tuple[int, int]:
        """(tasks, failed tasks) of every stage run in job group ``key``."""
        st = self.sc.statusTracker()
        total = failed = 0
        for job in st.getJobIdsForGroup(f"perfbench.{key}"):
            info = st.getJobInfo(job)
            for sid in info.stageIds if info else ():
                stage = st.getStageInfo(sid)
                if stage is not None:
                    total += stage.numTasks
                    failed += stage.numFailedTasks
        return total, failed
