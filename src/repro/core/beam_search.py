"""Greedy beam search — the shared query kernel for every graph method.

The paper's search procedure (Section 2.1): maintain the ``beam`` nearest
scored nodes; repeatedly expand the nearest unexpanded one; stop when the
nearest unexpanded candidate is farther than the current ``beam``-th best.
``beam`` (the paper's *beam size* / hnswlib's ``ef``) is the single
time-accuracy knob swept in every qps-recall experiment.

Variation points, used by the different strategies:

* ``get_neighbors``: a callable ``u -> int ndarray``. For static graphs this
  reads an adjacency row; for iRangeGraph it runs Algorithm 1 on the fly.
* ``visit_filter``: nodes failing it are neither scored nor expanded —
  iRangeGraph+'s stateful, probabilistic multi-attribute rule.
* :func:`top_k`'s ``keep``: applied to *scored* nodes when extracting the
  final top-k — this is the Post-filtering strategy (the graph is
  traversed without constraint; only reported results are filtered).

Every scored node costs one distance computation on ``counter``.

:func:`beam_search_many` is the same search for a batch of queries over
one static padded adjacency, advanced in lockstep as one array program
(the index build's case-2 searches). It returns exactly the ids
:func:`beam_search` followed by a stable distance sort returns.
"""
from __future__ import annotations

import heapq
from typing import Callable, Iterable

import numpy as np

from repro.core.neighbors import NO_EDGE, DistanceCounter

# Queries searched together by beam_search_many. Its state is dense, two
# (rows, graph size) arrays, and its first steps score up to rows x m
# pairs at once, so blocks bound the memory. At the index build's n=512
# 128 rows built as fast as 256 with a 1 MiB lower peak.
_BLOCK = 128
_UNSET = np.iinfo(np.int64).max  # the key of a node not scored


def beam_search(
    query: np.ndarray,
    vectors: np.ndarray,
    get_neighbors: Callable[[int], np.ndarray],
    entry_points: Iterable[int],
    *,
    beam: int,
    counter: DistanceCounter | None = None,
    visit_filter: Callable[[int], bool] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run greedy beam search; return (scored_ids, scored_dists).

    ``vectors`` is indexed by node id. The return value lists *every*
    scored node (superset of the final beam) so callers can apply their
    own result filtering (Post-filtering needs nodes that fell out of the
    beam too). Use :func:`top_k` to extract results.
    """
    visited: set[int] = set()
    scored_ids: list[int] = []
    scored_dists: list[float] = []
    cand: list[tuple[float, int]] = []  # min-heap of unexpanded nodes
    best: list[tuple[float, int]] = []  # max-heap (negated) of beam best

    def score(u: int) -> float:
        d = vectors[u] - query
        dist = float(np.dot(d, d))
        if counter is not None:
            counter.add(1)
        scored_ids.append(u)
        scored_dists.append(dist)
        return dist

    for e in entry_points:
        e = int(e)
        if e in visited:
            continue
        visited.add(e)
        if visit_filter is not None and not visit_filter(e):
            continue
        d = score(e)
        heapq.heappush(cand, (d, e))
        heapq.heappush(best, (-d, e))
        if len(best) > beam:
            heapq.heappop(best)

    while cand:
        d, u = heapq.heappop(cand)
        if len(best) >= beam and d > -best[0][0]:
            break
        # Python ints hash and compare far faster than numpy scalars.
        for v in get_neighbors(u).tolist():
            if v in visited:
                continue
            visited.add(v)
            if visit_filter is not None and not visit_filter(v):
                continue
            dv = score(v)
            if len(best) < beam or dv < -best[0][0]:
                heapq.heappush(cand, (dv, v))
                heapq.heappush(best, (-dv, v))
                if len(best) > beam:
                    heapq.heappop(best)
    return np.asarray(scored_ids, dtype=np.int64), np.asarray(scored_dists)


def beam_search_many(
    queries: np.ndarray,
    vectors: np.ndarray,
    adj: np.ndarray,
    entry: int,
    *,
    beam: int,
) -> np.ndarray:
    """:func:`beam_search` of every query over the padded adjacency
    ``adj`` (rows of distinct ids), entered at ``entry``, in lockstep.

    Returns a ``(len(queries), beam)`` array: row ``i`` holds what
    ``beam_search`` of ``queries[i]`` yields after a stable sort by
    distance, its ``beam`` nearest scored ids by (distance, scoring
    order), padded with ``NO_EDGE`` when fewer were scored. ``queries``
    and ``vectors`` are float32, and their distances finite.
    """
    c, m = adj.shape
    if m > 256:
        raise ValueError("adjacency rows wider than 256")
    # Padding, and the node a stopped query "expands", read row c: no
    # edges, and a column every query has seen.
    adj = np.vstack([np.where(adj < 0, c, adj), np.full(m, c)])
    out = np.full((len(queries), beam), NO_EDGE, dtype=np.int64)
    for lo in range(0, len(queries), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        _lockstep(queries[blk], vectors, adj, entry, beam, out[blk])
    return out


def _sq_norms(diff: np.ndarray) -> np.ndarray:
    """Row-wise squared norms with the float bits of ``np.dot(d, d)``
    per row (``einsum`` and ``(d * d).sum(1)`` round differently)."""
    return np.matmul(diff[:, None, :], diff[:, :, None]).ravel()


def _lockstep(queries, vectors, adj, entry, beam, out) -> None:
    """One block of :func:`beam_search_many`, written into ``out``.

    ``adj`` has the sentinel row ``c = len(adj) - 1``. Per query:
    ``open_d`` holds the distance of each admitted node not yet expanded
    (inf elsewhere), so its row argmin is the heap's next ``(dist, id)``;
    ``key`` orders every scored node by (distance, scoring order), as the
    stable sort of the heap kernel's output does, and marks the unscored
    ``_UNSET``; ``best_d`` holds the ``beam`` smallest distances scored,
    sorted and padded with the largest float32, its last the admission
    threshold. Each step expands every searching query's next node,
    scores the new neighbours of all of them at once and merges them in.
    """
    c, m = len(adj) - 1, adj.shape[1]
    at = np.arange(len(queries))
    d0 = _sq_norms(vectors[entry] - queries)
    open_d = np.full((len(queries), c + 1), np.inf, dtype=np.float32)
    open_d[:, entry] = d0
    # (distance bits << 32) | scoring order: non-negative float32 bits
    # sort as the floats do. The entry is scored first, with order 0; the
    # sentinel column counts as scored and is never returned.
    key = np.full(open_d.shape, _UNSET)
    key[:, entry] = d0.view(np.int32).astype(np.int64) << 32
    key[:, c] = 0
    best_d = np.full((len(queries), beam), np.finfo(np.float32).max,
                     dtype=np.float32)
    best_d[:, 0] = d0
    later = np.tri(m, k=-1, dtype=bool)  # [k, j]: j before k in a row
    rows = at  # the state's rows, as block rows
    step = 0
    while True:
        u = open_d.argmin(axis=1)
        # The heap stops when nothing is open (inf) or its next node is
        # farther than the beam-th best (float32 max until beam scored).
        go = open_d[at, u] <= best_d[:, -1]
        n_go = np.count_nonzero(go)
        if 4 * n_go <= 3 * len(go):
            # A stopped query's state no longer changes: emit and drop the
            # stopped once they are a quarter of the state's rows (one
            # array at a time, to bound the peak memory).
            out[rows[~go]] = _top(key[~go, :c], beam)
            if not n_go:
                return
            rows, queries, u, at = rows[go], queries[go], u[go], at[:n_go]
            open_d = open_d[go]
            key = key[go]
            best_d = best_d[go]
        elif n_go < len(go):
            u[~go] = c
        step += 1
        open_d[at, u] = np.inf
        nb = adj[u]
        # The new (query, neighbour) pairs, each query's in row order.
        pr, pc = np.nonzero(key[at[:, None], nb] == _UNSET)
        ids = nb[pr, pc]
        diff = vectors[ids]
        diff -= queries[pr]
        d = _sq_norms(diff)
        key[pr, ids] = (d.view(np.int32).astype(np.int64) << 32) | (step * m + pc)
        # A pair is admitted iff fewer than ``beam`` earlier scorings (the
        # best so far and its query's earlier new pairs) are <= it, i.e.
        # iff it is below the (beam - e)-th best, e the earlier pairs <= it.
        step_d = np.full(nb.shape, np.inf, dtype=np.float32)
        step_d[pr, pc] = d
        earlier = (step_d[pr] <= d[:, None]) & later[pc]
        # einsum sums the mask's bytes far faster than .sum(axis=1) does;
        # a uint8 holds the at most m - 1 earlier pairs.
        ahead = np.einsum("ij->i", earlier.view(np.uint8)).astype(np.int64)
        bar = best_d[pr, np.maximum(beam - 1 - ahead, 0)]
        ok = (ahead < beam) & (d < bar)
        pr, d = pr[ok], d[ok]
        if not len(pr):
            continue
        open_d[pr, ids[ok]] = d
        # Merge this step's scorings into the sorted best of the queries
        # that admitted any (the others' cannot change it).
        sub = np.flatnonzero(np.bincount(pr, minlength=len(rows)))
        merged = np.concatenate([best_d[sub], step_d[sub]], axis=1)
        best_d[sub] = np.sort(merged, axis=1)[:, :beam]


def _top(key: np.ndarray, beam: int) -> np.ndarray:
    """Per row, the columns of the ``beam`` smallest keys in key order,
    ``NO_EDGE`` where fewer are set."""
    if key.shape[1] > beam:
        cols = np.argpartition(key, beam - 1, axis=1)[:, :beam]
        key = np.take_along_axis(key, cols, axis=1)
    else:
        cols = np.broadcast_to(np.arange(key.shape[1]), key.shape)
    order = np.argsort(key, axis=1)
    ids = np.where(np.take_along_axis(key, order, axis=1) < _UNSET,
                   np.take_along_axis(cols, order, axis=1), NO_EDGE)
    top = np.full((len(key), beam), NO_EDGE, dtype=np.int64)
    top[:, :ids.shape[1]] = ids
    return top


def top_k(
    ids: np.ndarray,
    dists: np.ndarray,
    k: int,
    keep: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Top-k nearest ids from a scored set, optionally result-filtered.

    ``keep`` is a vectorized mask function over ids (e.g., the in-range
    predicate for Post-filtering). Returns ids sorted by distance.
    """
    if keep is not None and len(ids) > 0:
        mask = keep(ids)
        ids, dists = ids[mask], dists[mask]
    if len(ids) == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(dists, kind="stable")[:k]
    return ids[order]
