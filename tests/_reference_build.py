"""Plain reference for the index-build kernels.

A straightforward copy of the original RNG prune, which tests every
candidate against the stacked vectors of all kept ones, the brute-force
leaf builder with its per-pair Python ``any``, and the parent-segment
builder that maps a child row to local ids on every beam-search
expansion, the original layer loop of the iRangeGraph build, and
FilteredVamana's own insertion loop over the whole dataset, before it
became one ``build_hnsw`` per label. The optimized kernels and builders in
``repro.core`` must return exactly what these return.
"""
from __future__ import annotations

import numpy as np

from repro.core.beam_search import beam_search
from repro.core.neighbors import pairwise_sq
from repro.core.segment_tree import SegmentTree


def rng_prune(u_vec, cand_ids, cand_vecs, m, *, alpha=1.0):
    if len(cand_ids) == 0:
        return np.empty(0, dtype=np.int64)
    cand_ids = np.asarray(cand_ids)
    _, first = np.unique(cand_ids, return_index=True)
    first.sort()
    cand_ids = cand_ids[first]
    cand_vecs = cand_vecs[first]

    diff = cand_vecs - u_vec
    d_u = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(d_u, kind="stable")

    kept_idx: list[int] = []
    kept_vecs: list[np.ndarray] = []
    for idx in order:
        if len(kept_idx) >= m:
            break
        c = cand_vecs[idx]
        if kept_idx:
            kv = np.asarray(kept_vecs)
            dd = kv - c
            d_sc = np.einsum("ij,ij->i", dd, dd)
            if np.any(alpha * alpha * d_sc < d_u[idx]):
                continue
        kept_idx.append(int(idx))
        kept_vecs.append(c)
    return cand_ids[kept_idx]


def brute_force_rng(vecs, m, *, alpha=1.0):
    n = len(vecs)
    d = pairwise_sq(vecs)
    out: list[np.ndarray] = []
    ids = np.arange(n)
    for u in range(n):
        cand = ids[ids != u]
        order = cand[np.argsort(d[u, cand], kind="stable")]
        kept: list[int] = []
        for c in order:
            if len(kept) >= m:
                break
            if any(alpha * alpha * d[s, c] < d[u, c] for s in kept):
                continue
            kept.append(int(c))
        out.append(np.asarray(kept, dtype=np.int64))
    return out


def build_parent_segment(seg, vecs, below, m, ef, rows=None):
    """The builder's signature: ``below`` holds the segment's rows of the
    next-deeper adjacency (0-based global ids, -1 padded)."""
    ranks = np.arange(seg.lo, seg.hi + 1, dtype=np.int64)
    child = [row[row >= 0].astype(np.int64) + 1 for row in below]
    out = _parent_segment(seg, ranks, vecs, child, m, ef)
    return out if rows is None else out[rows.start:rows.stop]


def _parent_segment(seg, ranks, vecs, child_nbrs, m, ef):
    mid = (seg.lo + seg.hi) // 2
    is_left = ranks <= mid
    rank_to_local = {int(r): i for i, r in enumerate(ranks)}
    sides = {"L": np.nonzero(is_left)[0], "R": np.nonzero(~is_left)[0]}

    out: list[np.ndarray] = []
    for i in range(len(ranks)):
        other = sides["R"] if is_left[i] else sides["L"]
        cand = [int(r) for r in child_nbrs[i]]
        if len(other) > 0:
            ids, dists = beam_search(
                vecs[i],
                vecs,
                lambda u: np.asarray(
                    [rank_to_local[int(r)] for r in child_nbrs[u]
                     if int(r) in rank_to_local],
                    dtype=np.int64,
                ),
                [int(other[len(other) // 2])],
                beam=ef,
            )
            best = ids[np.argsort(dists, kind="stable")[:ef]]
            cand.extend(int(ranks[j]) for j in best)
        cand_arr = np.asarray(cand, dtype=np.int64)
        cand_local = np.asarray([rank_to_local[c] for c in cand_arr])
        out.append(rng_prune(vecs[i], cand_arr, vecs[cand_local], m))
    return out


def irange_layers(vectors, m, ef, leaf_size):
    """The original iRangeGraph layer loop on these kernels: every
    segment of a layer built whole, its rows kept in a dict keyed by rank
    and merged over the next-deeper layer's dict. Returns the padded
    per-layer adjacencies (0-based ids)."""
    vectors = np.asarray(vectors, dtype=np.float32)
    n = len(vectors)
    tree = SegmentTree(n, leaf_size)
    layer_adj = [np.full((n, m), -1, dtype=np.int32)
                 for _ in range(tree.num_layers)]
    prev_nbrs: dict[int, np.ndarray] = {}
    for layer in range(tree.num_layers - 1, -1, -1):
        cur: dict[int, np.ndarray] = {}
        for seg in tree.segments_at(layer):
            ranks = np.arange(seg.lo, seg.hi + 1, dtype=np.int64)
            vecs = vectors[ranks - 1]
            if tree.is_leaf(seg):
                nbrs = [ranks[nb] for nb in brute_force_rng(vecs, m)]
            else:
                child = [prev_nbrs[int(r)] for r in ranks]
                nbrs = _parent_segment(seg, ranks, vecs, child, m, ef)
            for r, nb in zip(ranks, nbrs):
                cur[int(r)] = np.asarray(nb, dtype=np.int64)
                layer_adj[layer][r - 1, :len(nb)] = cur[int(r)] - 1
        prev_nbrs = {**prev_nbrs, **cur}
    return layer_adj


def filtered_vamana(vectors, label, m, ef, seed):
    """FilteredVamana's original insert-and-repair loop, kept apart from
    HNSW-lite's: returns the padded adjacency and ``label -> first
    inserted node``."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    n = len(vectors)
    order = np.random.default_rng(seed).permutation(n)
    adj_lists: list[list[int]] = [[] for _ in range(n)]
    seen_first: dict[int, int] = {}

    def nbrs(u):
        return np.asarray(adj_lists[u], dtype=np.int64)

    for u in order:
        u = int(u)
        b = int(label[u])
        if b not in seen_first:
            seen_first[b] = u
            continue
        ids, dists = beam_search(
            vectors[u], vectors, nbrs, [seen_first[b]], beam=ef,
            visit_filter=lambda v: label[v] == b,
        )
        cand = ids[np.argsort(dists, kind="stable")[:ef]]
        kept = rng_prune(vectors[u], cand, vectors[cand], m)
        adj_lists[u] = [int(v) for v in kept]
        for v in adj_lists[u]:
            lst = adj_lists[v]
            lst.append(u)
            if len(lst) > m:
                cv = np.asarray(lst, dtype=np.int64)
                adj_lists[v] = [
                    int(x) for x in rng_prune(vectors[v], cv, vectors[cv], m)
                ]
    adj = np.full((n, m), -1, dtype=np.int32)
    for u, lst in enumerate(adj_lists):
        adj[u, : len(lst)] = lst[:m]
    return adj, seen_first
