"""Output checks: what counts as a failed query or a failed build."""
from __future__ import annotations

import numpy as np


def query_failure(
    res: np.ndarray, rng: np.ndarray, attr2_rank: np.ndarray, k: int
) -> str | None:
    """Why a search result is invalid, or ``None`` if it is valid.

    ``res`` holds 1-based attribute-1 ranks; ``rng`` is
    ``(lo1, hi1, lo2, hi2)``. A result shorter than the exact answer is
    valid: it lowers recall only.
    """
    lo1, hi1, lo2, hi2 = (int(x) for x in rng)
    if res.ndim != 1 or not np.issubdtype(res.dtype, np.integer):
        return f"result is not a 1-d integer array ({res.dtype}, {res.shape})"
    if len(res) > k:
        return f"{len(res)} ids returned for k={k}"
    if len(np.unique(res)) != len(res):
        return "duplicate ids"
    if len(res) and (res.min() < lo1 or res.max() > hi1):
        return f"id outside attribute-1 range [{lo1}, {hi1}]"
    if len(res):
        r2 = attr2_rank[res - 1]
        if r2.min() < lo2 or r2.max() > hi2:
            return f"id outside attribute-2 range [{lo2}, {hi2}]"
    return None


def index_failures(index, m: int) -> list[str]:
    """Structural problems of a built ``IRangeGraphIndex``.

    Per layer: no row has more than ``m`` edges, no self-loop, every
    neighbour lies in the node's segment of that layer (rows of nodes
    whose leaf sits above the layer are all padding), and padding
    (``-1``) only at the row end.
    """
    n, tree = index.n, index.tree
    out = []
    if len(index.layer_adj) != tree.num_layers:
        return [f"{len(index.layer_adj)} layers, tree has {tree.num_layers}"]
    node = np.arange(n)[:, None]
    for layer, adj in enumerate(index.layer_adj):
        if adj.shape != (n, m):
            out.append(f"layer {layer}: shape {adj.shape}, want {(n, m)}")
            continue
        lo = np.full(n, 1, dtype=np.int64)  # empty [1, 0] for nodes off-layer
        hi = np.zeros(n, dtype=np.int64)
        for seg in tree.segments_at(layer):
            lo[seg.lo - 1 : seg.hi] = seg.lo - 1
            hi[seg.lo - 1 : seg.hi] = seg.hi - 1
        valid = adj >= 0
        if (adj < -1).any():
            out.append(f"layer {layer}: padding value other than -1")
        if (valid[:, 1:] & ~valid[:, :-1]).any():
            out.append(f"layer {layer}: padding before an edge")
        if (valid & (adj == node)).any():
            out.append(f"layer {layer}: self-loop")
        outside = valid & ((adj < lo[:, None]) | (adj > hi[:, None]))
        if outside.any():
            out.append(f"layer {layer}: {int(outside.sum())} edges leave the segment")
    return out


def adjacency_differs(a, b) -> list[int]:
    """Layers whose adjacency differs between two indexes."""
    if len(a.layer_adj) != len(b.layer_adj):
        return list(range(max(len(a.layer_adj), len(b.layer_adj))))
    return [
        i for i, (x, y) in enumerate(zip(a.layer_adj, b.layer_adj))
        if not np.array_equal(x, y)
    ]
