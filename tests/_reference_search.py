"""Plain reference for the iRangeGraph query path.

A straightforward copy of the original Segment-walking Algorithm 1, the
greedy beam search that casts every neighbour with ``int(v)``, that
search run per query in place of the build's lockstep case-2 kernel, and
``IRangeGraphIndex.search`` wired to both. The optimized code in
``repro.core`` must return exactly what these return; the segment split
is inlined so the reference does not lean on any segment-tree helper.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.beam_search import top_k


def _intersection(seg, lo, hi):
    _, s_lo, s_hi = seg
    return max(s_lo, lo), min(s_hi, hi)


def _child_containing(seg, rank):
    layer, s_lo, s_hi = seg
    mid = (s_lo + s_hi) // 2
    if rank <= mid:
        return layer + 1, s_lo, mid
    return layer + 1, mid + 1, s_hi


def select_edges(index, u, lo, hi, *, skip_layers=True):
    """Algorithm 1 over ``(layer, lo, hi)`` segments with 1-based ranks."""
    rank = u + 1
    leaf_size = index.tree.leaf_size
    seg = (0, 1, index.tree.n)

    def is_leaf(s):
        return s[2] - s[1] + 1 <= leaf_size

    selected: list[int] = []
    seen: set[int] = set()
    lo0, hi0 = lo - 1, hi - 1
    while len(selected) < index.m:
        if skip_layers and not is_leaf(seg):
            child = _child_containing(seg, rank)
            if _intersection(child, lo, hi) == _intersection(seg, lo, hi):
                seg = child
                continue
        row = index.layer_adj[seg[0]][u]
        for v in row:
            if v < 0:
                break
            if lo0 <= v <= hi0 and v not in seen:
                seen.add(int(v))
                selected.append(int(v))
                if len(selected) >= index.m:
                    break
        if (lo <= seg[1] and seg[2] <= hi) or is_leaf(seg):
            break
        seg = _child_containing(seg, rank)
    return np.asarray(selected[: index.m], dtype=np.int64)


def beam_search(query, vectors, get_neighbors, entry_points, *, beam,
                counter=None, visit_filter=None):
    """Greedy beam search scoring one node at a time."""
    visited: set[int] = set()
    scored_ids: list[int] = []
    scored_dists: list[float] = []
    cand: list[tuple[float, int]] = []
    best: list[tuple[float, int]] = []

    def score(u):
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
        for v in get_neighbors(u):
            v = int(v)
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


def beam_search_many(queries, vectors, adj, entry, *, beam,
                     search=beam_search):
    """The lockstep case-2 kernel as a single-query ``search`` (default:
    the beam loop above) per query, then a stable sort by distance,
    padded with -1 to ``beam`` columns."""
    out = np.full((len(queries), beam), -1, dtype=np.int64)
    for i, q in enumerate(queries):
        ids, dists = search(q, vectors, lambda u: adj[u][adj[u] >= 0],
                            [entry], beam=beam)
        top = ids[np.argsort(dists, kind="stable")[:beam]]
        out[i, :len(top)] = top
    return out


class ReferenceIndex:
    """``IRangeGraphIndex.search`` on the reference kernels above.

    Wraps a built index; ``MultiAttrIndex`` accepts it in place of the
    real index, so the multi-attribute strategies run on the reference
    too.
    """

    def __init__(self, index) -> None:
        self.index = index
        self.n = index.n

    def search(self, query, lo, hi, *, beam, k, counter=None,
               skip_layers=True, visit_filter=None, result_keep=None):
        idx = self.index
        if lo > hi:
            return np.empty(0, dtype=np.int64)
        lo = max(1, lo)
        hi = min(idx.n, hi)
        if hi - lo + 1 <= beam:
            ids = np.arange(lo - 1, hi, dtype=np.int64)
            d = idx.vectors[ids] - query
            dists = np.einsum("ij,ij->i", d, d)
            if counter is not None:
                counter.add(len(ids))
            return top_k(ids, dists, k, keep=result_keep) + 1
        memo: dict[int, np.ndarray] = {}

        def get_neighbors(u):
            nbrs = memo.get(u)
            if nbrs is None:
                nbrs = select_edges(idx, u, lo, hi, skip_layers=skip_layers)
                memo[u] = nbrs
            return nbrs

        entries = np.unique(np.linspace(lo - 1, hi - 1, num=4, dtype=np.int64))
        ids, dists = beam_search(
            query, idx.vectors, get_neighbors, [int(e) for e in entries],
            beam=beam, counter=counter, visit_filter=visit_filter,
        )
        return top_k(ids, dists, k, keep=result_keep) + 1
