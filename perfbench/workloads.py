"""The three RFANN workloads, their timed loops and their metrics.

Every workload builds an index, then serves its queries from it in a
closed loop: one client, one call at a time, single-threaded (the
paper's search protocol). Only the search and build calls are timed;
outputs are checked outside the timed regions.

* ``mixed``: ``IRangeGraphIndex.search`` on ranges of fraction
  2^0 .. 2^-5 in equal shares; the driver build runs in set-up.
* ``multiattr``: ``MultiAttrIndex.search(mode="prob")`` (iRangeGraph+) on
  conjunctive ranges of fraction 2^-2 per attribute; driver build in set-up.
* ``build``: the Spark builder, timed; then unfiltered (whole-range)
  search on the Spark-built index. Traced runs also run the driver
  builder, the reference the Spark adjacency must equal.
"""
from __future__ import annotations

import gc
import os
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.irange_build import build_irange_index, build_irange_index_local
from repro.core.multi_attr import MultiAttrIndex
from repro.core.neighbors import DistanceCounter
from repro.core.segment_tree import SegmentTree

import checks
import tracing
from calibration import Calibrator
from workload_inputs import EF, K, LEAF, M, N, Inputs, exact_answers, make_inputs

BEAMS = (10, 20, 40)
# Run only when recall at beam 40 misses the target, so that
# qps_at_r90 stays defined; the code at hand reaches 0.9 by beam 40.
EXTRA_BEAM = 80
LAT_BEAM = 40
TARGET = 0.9
# Queries are timed in blocks of 48 (8 per mixed fraction group), all
# beams of a block back to back, so a slow spell hits every beam alike;
# qps is the median block throughput.
BLOCK = 48
# A calibration sample (see calibration.py) every 4 queries: a coarser
# grid left p99 latency twice as noisy.
CAL_EVERY = 4
LAYERS = SegmentTree(N, LEAF).num_layers

E2E = {
    "setup_s": "s",
    "build_s": "s",
    "index_mb": "MiB",
    "peak_rss_mb": "MiB",
    "qps_at_r90": "queries/ref-s",
    "dists_at_r90": "dists/query",
    "recall_b40": "fraction",
    "lat_p50_ms": "ref-ms",
    "lat_p99_ms": "ref-ms",
}
PER_LAYER = {
    "irange_graph.search.self_s": "s",
    "irange_graph.select_edges.s": "s",
    "irange_graph.select_edges.calls": "count",
    "irange_graph.select_edges.fill": "ratio",
    "irange_graph.slice_scans": "count",
    "irange_graph.short_results": "count",
    "beam_search.self_s": "s",
    "beam_search.calls": "count",
    "beam_search.scored": "count",
    "beam_search.top_k_s": "s",
    "neighbors.dists": "count",
    "multi_attr.search.self_s": "s",
    "multi_attr.visit.calls": "count",
    "multi_attr.visit.s": "s",
    "multi_attr.visit.accept_ratio": "ratio",
    "multi_attr.keep_ratio": "ratio",
    **{f"irange_build.layer{i}.{m}": u for i in range(LAYERS)
       for m, u in (("s", "s"), ("segments", "count"))},
    "irange_build.build_parent_segment.self_s": "s",
    "irange_build.build_leaf_segment.s": "s",
    "irange_build.case2_search.self_s": "s",
    "irange_build.case2_search.calls": "count",
    "rng_prune.calls": "count",
    "rng_prune.s": "s",
    "rng_prune.cand": "count",
    "rng_prune.kept_ratio": "ratio",
    "rng_prune.brute_force_rng.s": "s",
    **{f"spark.layer{i}.{m}": u for i in range(LAYERS)
       for m, u in (("job_s", "s"), ("tasks", "count"),
                    ("failed_tasks", "count"), ("roundtrip_s", "s"),
                    ("core_util", "ratio"))},
    "trace.overhead_frac": "ratio",
}


@dataclass
class Outcome:
    """What one run attempted, what failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, msg: str, op: bool = True) -> None:
        """Record a failed operation (``op``) or a failed run-level check."""
        self.failed += op
        if len(self.problems) < 20:
            self.problems.append(msg)
        elif len(self.problems) == 20:
            self.problems.append("... (further problems not listed)")

    @property
    def correct(self) -> bool:
        return not self.problems


# ------------------------------------------------------------------ sweep
@dataclass
class Sweep:
    """One beam sweep over the query set: the first pass's results and
    distance counts, and the timings of every pass, at reference speed
    (see ``calibration.py``) and raw."""

    cal: Calibrator
    results: dict[int, list] = field(default_factory=dict)
    dists: dict[int, int] = field(default_factory=dict)
    block_qps: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    block_qps_raw: dict[int, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    lat_ms: list[float] = field(default_factory=list)
    lat_ms_raw: list[float] = field(default_factory=list)
    passes: float = 0.0


def _time_block(search, block, beam, counter, sweep, out, inp, first):
    """Time ``block`` at ``beam``, one call at a time, with a calibration
    sample every ``CAL_EVERY`` queries; check or compare the results."""
    busy = busy_ref = 0.0
    before = sweep.cal.sample()
    for s in range(0, len(block), CAL_EVERY):
        times = []
        for i in block[s:s + CAL_EVERY]:
            t0 = time.perf_counter()
            try:
                res = search(i, beam, counter)
            except Exception as e:  # a raising query counts as failed
                times.append(time.perf_counter() - t0)
                out.fail(f"beam {beam} query {i} raised {type(e).__name__}: {e}")
                res = None
            else:
                times.append(time.perf_counter() - t0)
                if first:
                    why = checks.query_failure(np.asarray(res), inp.ranges[i],
                                               inp.attr2_rank, K)
                    if why:
                        out.fail(f"beam {beam} query {i}: {why}")
                elif not np.array_equal(res, sweep.results[beam][i]):
                    out.fail(f"beam {beam} query {i}: result differs between passes")
            out.attempted += 1
            if first:
                sweep.results[beam][i] = res
        after = sweep.cal.sample()
        f = sweep.cal.factor(before, after)
        before = after
        busy += sum(times)
        busy_ref += sum(times) * f
        if beam == LAT_BEAM:
            sweep.lat_ms.extend(t * f * 1e3 for t in times)
            sweep.lat_ms_raw.extend(t * 1e3 for t in times)
    sweep.block_qps[beam].append(len(block) / busy_ref)
    sweep.block_qps_raw[beam].append(len(block) / busy)


def _blocks(nq: int) -> list[range]:
    return [range(s, min(s + BLOCK, nq)) for s in range(0, nq, BLOCK)]


def run_sweep(search, inp: Inputs, truth, seconds: float, cal: Calibrator,
              out: Outcome) -> Sweep:
    """Time ``search(i, beam, counter)`` over every query at every beam,
    block by block, until each query has run once at each beam and
    ``seconds`` have passed."""
    blocks = _blocks(len(inp.queries))
    nq = len(inp.queries)
    sw = Sweep(cal)
    counters = {b: DistanceCounter() for b in BEAMS}
    for b in BEAMS:
        sw.results[b] = [None] * nq
    deadline = time.perf_counter() + seconds
    j = 0
    while j < len(blocks) or time.perf_counter() < deadline:
        first = j < len(blocks)
        for b in BEAMS:
            c = counters[b] if first else DistanceCounter()
            _time_block(search, blocks[j % len(blocks)], b, c, sw, out, inp, first)
        j += 1
    sw.passes = j / len(blocks)
    if _recall(sw.results[LAT_BEAM], truth) < TARGET:
        counters[EXTRA_BEAM] = DistanceCounter()
        sw.results[EXTRA_BEAM] = [None] * nq
        for blk in blocks:
            _time_block(search, blk, EXTRA_BEAM, counters[EXTRA_BEAM], sw, out,
                        inp, True)
    sw.dists = {b: c.count for b, c in counters.items()}
    return sw


def _recall(results, truth) -> float:
    r = [
        len(np.intersect1d(res, gt)) / len(gt) if len(gt) else 1.0
        for res, gt in zip(results, truth)
        if res is not None
    ]
    return float(np.mean(r)) if r else 0.0


def _at_recall(points: list[tuple[float, float]], target: float) -> float | None:
    """``repro.eval.harness``'s rule: sort ``(recall, value)`` points by
    recall; interpolate log-value linearly in recall between the first
    point reaching ``target`` and its predecessor."""
    pts = sorted(points)
    prev = None
    for rec, val in pts:
        if rec >= target:
            if prev is None or rec == prev[0]:
                return float(val)
            w = (target - prev[0]) / (rec - prev[0])
            a, b = np.log(max(prev[1], 1e-12)), np.log(max(val, 1e-12))
            return float(np.exp(a + w * (b - a)))
        prev = (rec, val)
    return None


def curve(sw: Sweep, truth, nq: int) -> dict[int, dict[str, float]]:
    return {
        b: {
            "recall": _recall(sw.results[b], truth),
            "dists": sw.dists[b] / nq,
            "qps": float(np.median(sw.block_qps[b])),
            "qps_raw": float(np.median(sw.block_qps_raw[b])),
        }
        for b in sw.results
    }


def search_metrics(sw: Sweep, truth, nq: int, out: Outcome) -> None:
    cv = curve(sw, truth, nq)
    for b, row in cv.items():
        out.notes.append(
            f"beam {b:3d}: recall {row['recall']:.4f}  queries/ref-s "
            f"{row['qps']:8.2f}  raw qps {row['qps_raw']:8.2f}  dists/query "
            f"{row['dists']:8.3f}  blocks timed {len(sw.block_qps[b])}")
    short = sum(
        res is not None and len(res) < len(gt)
        for b in sw.results for res, gt in zip(sw.results[b], truth)
    )
    out.notes.append(f"short results (all beams, first pass): {short}")
    qps = _at_recall([(r["recall"], r["qps"]) for r in cv.values()], TARGET)
    dists = _at_recall([(r["recall"], r["dists"]) for r in cv.values()], TARGET)
    if qps is None or dists is None:
        out.fail(f"recall {TARGET} not reached by beam {max(cv)}", op=False)
        qps = dists = float("nan")
    lat, raw = np.asarray(sw.lat_ms), np.asarray(sw.lat_ms_raw)
    qps_raw = _at_recall([(r["recall"], r["qps_raw"]) for r in cv.values()], TARGET)
    out.notes.append(
        f"latency at beam {LAT_BEAM}: {len(lat)} samples over {sw.passes:.2f} "
        f"passes; raw p50 {np.percentile(raw, 50):.3f} ms, p99 "
        f"{np.percentile(raw, 99):.3f} ms; raw qps_at_r90 {qps_raw or float('nan'):.2f}")
    out.metrics.update(
        qps_at_r90=qps,
        dists_at_r90=dists,
        recall_b40=cv[LAT_BEAM]["recall"],
        lat_p50_ms=float(np.percentile(lat, 50)),
        lat_p99_ms=float(np.percentile(lat, 99)),
    )


# ------------------------------------------------------------ traced pass
def traced_pass(search, inp, truth, sw: Sweep, tr: tracing.Tracer,
                out: Outcome) -> dict[str, float]:
    """Serve the query set once more at every beam of ``sw`` with spans
    on; check it repeats the untraced run exactly and return the query
    layers' numbers."""
    nq = len(inp.queries)

    def traced_search(i, beam, counter):
        tr.qid = f"b{beam}/q{i}"
        return search(i, beam, counter)

    traced = Sweep(sw.cal, results={b: [None] * nq for b in sw.results})
    counters = {b: DistanceCounter() for b in sw.results}
    scratch = Outcome()  # the untraced pass already counted these queries
    tracing.trace_search(tr)
    first_span = len(tr.spans)
    try:
        for blk in _blocks(nq):
            for b in sw.results:
                _time_block(traced_search, blk, b, counters[b], traced, scratch,
                            inp, True)
    finally:
        tr.restore()
        tr.qid = None
    traced.dists = {b: c.count for b, c in counters.items()}
    for msg in scratch.problems[:3]:
        out.fail(f"traced pass: {msg}", op=False)
    for b in sw.results:
        if any(not np.array_equal(x, y)
               for x, y in zip(traced.results[b], sw.results[b])):
            out.fail(f"traced results differ from untraced at beam {b}", op=False)
    if _recall_dists(traced, truth, nq) != _recall_dists(sw, truth, nq):
        out.fail("traced recall/dists differ from untraced", op=False)
    total, self_s, calls = tr.times(first_span)
    c = tr.counts
    dists = sum(traced.dists.values())
    if c["beam_search.scored"] + c["irange_graph.slice_rows"] != dists:
        out.fail(
            f"beam_search.scored {c['beam_search.scored']:.0f} + slice rows "
            f"{c['irange_graph.slice_rows']:.0f} != neighbors.dists {dists}",
            op=False)
    sel_calls = calls.get("irange_graph.select_edges", 0)
    visits = c["multi_attr.visit.calls"]
    layer = {
        "irange_graph.search.self_s": self_s.get("irange_graph.search", 0.0),
        "irange_graph.select_edges.s": total.get("irange_graph.select_edges", 0.0),
        "irange_graph.select_edges.calls": sel_calls,
        "irange_graph.select_edges.fill":
            c["irange_graph.select_edges.edges"] / (sel_calls * M) if sel_calls else 0.0,
        "irange_graph.slice_scans": c["irange_graph.slice_scans"],
        "irange_graph.short_results": sum(
            res is not None and len(res) < len(gt) for b in traced.results
            for res, gt in zip(traced.results[b], truth)),
        "beam_search.self_s": self_s.get("beam_search", 0.0),
        "beam_search.calls": calls.get("beam_search", 0),
        "beam_search.scored": c["beam_search.scored"],
        "beam_search.top_k_s": total.get("beam_search.top_k", 0.0),
        "neighbors.dists": dists,
        "multi_attr.search.self_s": self_s.get("multi_attr.search", 0.0),
        "multi_attr.visit.calls": visits,
        "multi_attr.visit.s": c["multi_attr.visit.s"],
        "multi_attr.visit.accept_ratio":
            c["multi_attr.visit.accepted"] / visits if visits else 0.0,
        "multi_attr.keep_ratio":
            c["multi_attr.keep.kept"] / c["multi_attr.keep.in"]
            if c["multi_attr.keep.in"] else 0.0,
        "trace.overhead_frac": _pass_s(traced, nq) / _pass_s(sw, nq) - 1.0,
    }
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
    out.notes.append("query-path self time: " + ", ".join(
        f"{k} {v:.3f}s" for k, v in ranked))
    return layer


def _pass_s(sw: Sweep, nq: int) -> float:
    """Seconds one pass over the query set takes, at median block speed."""
    return sum(nq / float(np.median(q)) for q in sw.block_qps.values())


def _recall_dists(sw: Sweep, truth, nq: int) -> dict:
    return {b: (_recall(sw.results[b], truth), sw.dists[b] / nq)
            for b in sw.results}


# ------------------------------------------------------------------ builds
def driver_build(inp: Inputs, cal: Calibrator, tr: tracing.Tracer | None):
    """``build_irange_index_local``; returns the index and its seconds at
    reference speed and raw. With ``tr``, the kernels are traced too."""
    from repro.core import irange_build as ib

    if tr is not None:
        tree = SegmentTree(N, LEAF)
        layer_of = {(s.lo, s.hi): s.layer for lay in tree.layers for s in lay}
        tracing.trace_build_kernels(tr, layer_of)
    try:
        # rng_prune runs once per node and parent layer, every ~3 ms.
        return cal.time_within(
            ib, ("rng_prune", "brute_force_rng"),
            lambda: build_irange_index_local(inp.vectors, m=M, ef=EF, leaf_size=LEAF),
            every=16)
    finally:
        if tr is not None:
            tr.restore()


def check_build(index, label: str, out: Outcome) -> None:
    out.attempted += 1
    problems = checks.index_failures(index, M)
    if problems:
        out.fail(f"{label} build: " + "; ".join(problems[:5]))


def build_layer_metrics(tr: tracing.Tracer) -> dict[str, float]:
    total, self_s, calls = tr.times()
    c = tr.counts
    cand = c["rng_prune.cand"]
    m = {k: c[k] for k in PER_LAYER if k.startswith("irange_build.layer")}
    m.update({
        "irange_build.build_parent_segment.self_s":
            self_s.get("irange_build.build_parent_segment", 0.0)
            + c["irange_build.child_nbrs.s"],
        "irange_build.build_leaf_segment.s":
            total.get("irange_build.build_leaf_segment", 0.0),
        "irange_build.case2_search.self_s":
            self_s.get("irange_build.case2_search", 0.0),
        "irange_build.case2_search.calls":
            calls.get("irange_build.case2_search", 0),
        "rng_prune.calls": calls.get("rng_prune", 0),
        "rng_prune.s": total.get("rng_prune", 0.0),
        "rng_prune.cand": cand,
        "rng_prune.kept_ratio": c["rng_prune.kept"] / cand if cand else 0.0,
        "rng_prune.brute_force_rng.s": total.get("rng_prune.brute_force_rng", 0.0),
    })
    return m


# --------------------------------------------------------------- workloads
def run(workload: str, seed: int, seconds: float, trace: bool, outdir: Path) -> Outcome:
    """One run of ``workload``: end-to-end metrics, or with ``trace`` the
    per-layer ones (spans are written under ``outdir``)."""
    out = Outcome()
    cal = Calibrator()
    tr = tracing.Tracer() if trace else None
    t_setup = time.perf_counter()
    inp = make_inputs(workload, seed)
    truth = exact_answers(inp)
    out.notes.append(f"inputs sha256[:16] {inp.digest()}  n={N} nq={len(inp.queries)} "
                     f"k={K} m={M} ef={EF} leaf={LEAF} layers={LAYERS}")
    spark_layer: dict[str, float] = {}
    if workload == "build":
        index, build_s, setup_s, spark_layer = _spark_build(inp, t_setup, tr, out)
        check_build(index, "spark", out)
    else:
        index, build_s, build_raw = driver_build(inp, cal, tr)
        check_build(index, "driver", out)
        setup_s = time.perf_counter() - t_setup
        out.notes.append(f"driver build {build_raw:.3f} s raw, "
                         f"{build_s:.3f} s at reference speed")
    served = MultiAttrIndex(index, inp.attr2_rank) if workload == "multiattr" else index

    search = _searcher(workload, served, inp)
    # Set-up garbage (Spark, pandas, the build) must not be collected
    # inside timed queries: freeze it out of the collector's reach.
    gc.collect()
    gc.freeze()
    sw = run_sweep(search, inp, truth, seconds, cal, out)
    search_metrics(sw, truth, len(inp.queries), out)
    layer = traced_pass(search, inp, truth, sw, tr, out) if trace else {}

    if workload == "build" and trace:
        # The driver build is the reference the Spark adjacency must equal;
        # it runs in traced runs only, which need its kernel spans anyway.
        ref, _, ref_raw = driver_build(inp, cal, tr)
        out.notes.append(f"driver build (reference) {ref_raw:.3f} s raw")
        check_build(ref, "driver", out)
        differ = checks.adjacency_differs(index, ref)
        if differ:
            out.fail(f"spark adjacency differs from driver on layers {differ}")
        for i in range(LAYERS):
            job = spark_layer[f"spark.layer{i}.job_s"]
            kern = tr.counts[f"irange_build.layer{i}.s"]
            spark_layer[f"spark.layer{i}.core_util"] = (
                kern / (job * _cores()) if job else 0.0)

    if not trace:
        if workload != "build":
            # The single-threaded set-up follows the calibration kernel;
            # Spark's JVM and workers did not, so `build` stays raw.
            factor = cal.run_factor()
            out.notes.append(f"set-up {setup_s:.3f} s raw; run calibration "
                             f"factor {factor:.4f}")
            setup_s *= factor
        out.metrics.update(
            setup_s=setup_s,
            build_s=build_s,
            index_mb=served.memory_bytes()["index"] / 2**20,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        out.metrics = {k: float(out.metrics[k]) for k in E2E}
        return out
    layer.update(build_layer_metrics(tr))
    layer.update(spark_layer)
    out.metrics = {k: float(layer.get(k, 0.0)) for k in PER_LAYER}
    path = outdir / f"spans-{workload}-seed{seed}.jsonl"
    tr.dump(path)
    out.notes.append(f"{len(tr.spans)} spans written to {path}")
    return out


def _cores() -> int:
    # Two Spark cores, not four: with four, the JVM, the workers and the
    # driver contended and the build time spread three times wider.
    return min(2, os.cpu_count() or 1)


def _searcher(workload, served, inp: Inputs):
    q, rg = inp.queries, inp.ranges
    if workload == "multiattr":
        def search(i, beam, counter):
            lo1, hi1, lo2, hi2 = (int(x) for x in rg[i])
            return served.search(q[i], (lo1, hi1), (lo2, hi2), beam=beam, k=K,
                                 mode="prob", counter=counter)
    else:
        def search(i, beam, counter):
            return served.search(q[i], int(rg[i, 0]), int(rg[i, 1]),
                                 beam=beam, k=K, counter=counter)
    return search


def _spark_build(inp: Inputs, t_setup: float, tr, out: Outcome):
    """Set up Spark, then time ``build_irange_index``.

    Returns the index, the build's and the set-up's wall seconds and the
    per-layer Spark numbers (when traced). Neither is scaled to reference
    speed: calibration samples on the driver, between layer jobs or over
    the whole run, made them noisier, as the work runs in the JVM and the
    Python workers.
    """
    import pandas as pd

    import spark_session

    spark = spark_session.start(_cores(), Path(os.environ["TMPDIR"]))
    try:
        pdf = pd.DataFrame({
            "rank": np.arange(1, N + 1, dtype=np.int64),
            "vector": [row.tolist() for row in inp.vectors],
        })
        schema = "rank long, vector array<float>"
        # Warm-up: the same builder on the first two leaves' vectors runs
        # every kind of job the timed build runs, so the timed build does
        # not pay for starting the Python workers or first-time planning.
        build_irange_index(spark, spark.createDataFrame(pdf.head(2 * LEAF), schema),
                           m=M, ef=EF, leaf_size=LEAF)
        vectors_df = spark.createDataFrame(pdf, schema)
        setup_s = time.perf_counter() - t_setup
        probe = None
        if tr is not None:
            probe = tracing.SparkProbe(tr, spark, type(vectors_df),
                                       list(range(LAYERS - 1, -1, -1)))
        t0 = time.perf_counter()
        try:
            index = build_irange_index(spark, vectors_df, m=M, ef=EF, leaf_size=LEAF)
        finally:
            if tr is not None:
                tr.restore()
        build_s = time.perf_counter() - t0
        layer = {}
        if probe is not None:
            for i in range(LAYERS):
                tasks, failed = probe.tasks(f"layer{i}.job")
                layer.update({
                    f"spark.layer{i}.job_s": tr.counts[f"spark.layer{i}.job_s"],
                    f"spark.layer{i}.roundtrip_s":
                        tr.counts[f"spark.layer{i}.roundtrip_s"],
                    f"spark.layer{i}.tasks": tasks,
                    f"spark.layer{i}.failed_tasks": failed,
                })
            out.notes.append(f"spark load (toPandas of the vectors) "
                             f"{tr.counts['spark.load_s']:.3f} s")
    finally:
        spark_session.stop(spark)
    return index, build_s, setup_s, layer
