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
  this is the In-filtering strategy (and, stateful, the probabilistic
  multi-attribute rule).
* ``result_filter``: applied to *scored* nodes when extracting the final
  top-k — this is the Post-filtering strategy (the graph is traversed
  without constraint; only reported results are filtered).

Every scored node costs one distance computation on ``counter``.
"""
from __future__ import annotations

import heapq
from typing import Callable, Iterable

import numpy as np

from repro.core.neighbors import DistanceCounter


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
