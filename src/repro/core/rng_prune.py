"""The RNG pruning rule (paper Definition 2.1) and its DiskANN-style
``alpha`` generalization.

Given a node ``u`` and a candidate set, candidates are examined in order
of increasing distance to ``u``; a candidate ``c`` is *pruned* if some
already-retained candidate ``s`` satisfies ``alpha * d(s, c) < d(u, c)``
(``alpha = 1`` is exactly the RNG rule: ``s`` is closer to both ``u`` and
``c`` than they are to each other). At most ``m`` candidates are retained.

The rule is applied when a candidate is *kept*, not when one is visited:
keeping ``s`` scores it against every candidate at once and marks those it
prunes in a boolean mask, and the walk skips marked candidates. A
candidate is marked iff some earlier-kept one prunes it, so the result is
that of the per-candidate test, at ``<= m`` vector operations per call
instead of one per candidate. ``c - s`` is exactly ``-(s - c)``, so every
``d(s, c)`` has the same float bits as when scored the other way round.

This single routine is the edge selector used by every graph builder in
the reproduction: leaf elemental graphs, bottom-up parent graphs,
HNSW-lite insertion and neighbor-list repair, SeRF-like incremental
builds, and the Vamana-style baselines.
"""
from __future__ import annotations

import numpy as np

from repro.core.neighbors import pairwise_sq


def rng_prune(
    u_vec: np.ndarray,
    cand_ids: np.ndarray,
    cand_vecs: np.ndarray,
    m: int,
    *,
    alpha: float = 1.0,
) -> np.ndarray:
    """Prune ``cand_ids`` down to at most ``m`` RNG-retained neighbors.

    ``cand_vecs[i]`` is the vector of ``cand_ids[i]``. Duplicate ids are
    collapsed (first occurrence wins). Returns retained ids in order of
    increasing distance to ``u``.
    """
    if len(cand_ids) == 0:
        return np.empty(0, dtype=np.int64)
    cand_ids = np.asarray(cand_ids)
    # Collapse duplicates, keeping the first occurrence.
    _, first = np.unique(cand_ids, return_index=True)
    first.sort()
    cand_ids = cand_ids[first]
    cand_vecs = cand_vecs[first]

    diff = cand_vecs - u_vec
    d_u = np.einsum("ij,ij->i", diff, diff)
    a2 = alpha * alpha
    pruned = np.zeros(len(cand_ids), dtype=bool)
    kept: list[int] = []
    for s in np.argsort(d_u, kind="stable").tolist():
        if len(kept) >= m:
            break
        if pruned[s]:
            continue
        kept.append(s)
        dd = cand_vecs - cand_vecs[s]
        pruned |= a2 * np.einsum("ij,ij->i", dd, dd) < d_u
    return cand_ids[kept]


def brute_force_rng(
    vecs: np.ndarray, m: int, *, alpha: float = 1.0
) -> list[np.ndarray]:
    """Exact approximate-RNG over a small point set (leaf graphs).

    For every node, all other nodes are candidates; the RNG rule with a
    degree cap of ``m`` selects the out-edges. One ``pairwise_sq`` matrix,
    then per node a walk in distance order that, as in :func:`rng_prune`,
    masks what each kept node prunes (``<= m`` row operations per node).
    Row ``u`` of the matrix is read exactly where the per-pair rule read
    ``d[s, c]`` and ``d[u, c]``, in float64 as that rule compared them, so
    the edges are the same. Only used for segment-tree leaves (<= ~64
    points) and tests.
    """
    n = len(vecs)
    d = pairwise_sq(vecs).astype(np.float64)
    a2 = alpha * alpha
    out: list[np.ndarray] = []
    for u in range(n):
        pruned = np.zeros(n, dtype=bool)
        pruned[u] = True
        kept: list[int] = []
        for c in np.argsort(d[u], kind="stable").tolist():
            if len(kept) >= m:
                break
            if pruned[c]:
                continue
            kept.append(c)
            pruned |= a2 * d[c] < d[u]
        out.append(np.asarray(kept, dtype=np.int64))
    return out
