"""The RNG pruning rule (paper Definition 2.1).

Given a node ``u`` and a candidate set, candidates are examined in order
of increasing distance to ``u``; a candidate ``c`` is *pruned* if some
already-retained candidate ``s`` satisfies ``d(s, c) < d(u, c)`` (``s``
is closer to both ``u`` and ``c`` than they are to each other). At most
``m`` candidates are retained.

The rule is applied when a candidate is *kept*, not when one is visited:
keeping ``s`` scores it against every candidate at once and marks those it
prunes in a boolean mask, and the walk skips marked candidates. A
candidate is marked iff some earlier-kept one prunes it, so the result is
that of the per-candidate test, at ``<= m`` vector operations per call
instead of one per candidate. ``c - s`` is exactly ``-(s - c)``, so every
``d(s, c)`` has the same float bits as when scored the other way round.

:func:`rng_prune` is the edge selector of the incremental builders
(HNSW-lite insertion and neighbor-list repair, SeRF-like builds, the
Vamana-style baselines). The iRangeGraph build prunes many nodes at once
and runs the same walk in lockstep (DiskANN's RobustPrune batched):

* :func:`rng_prune_many` prunes a padded ``(rows, c)`` candidate block,
  one parent segment side's case-1 and case-2 candidates: at most ``m``
  steps, each keeping every live row's next candidate and scoring it
  against that row's candidates still unmasked;
* :func:`brute_force_rng` walks all rows of a leaf's ``pairwise_sq``
  matrix the same way.

Both return per row exactly what the single-node walk returns, as one
``NO_EDGE``-padded ``(rows, m)`` block.
"""
from __future__ import annotations

import numpy as np

from repro.core.neighbors import NO_EDGE, pairwise_sq

# Rows pruned together by rng_prune_many, and (row, candidate) pairs
# scored together. A lockstep step costs a few dozen numpy calls whatever
# its size, so blocks of more rows take fewer steps: the prunes of an
# n = 4096 build took 1.12 s in 32-row blocks, 0.76 s in 64-row and 128-row
# ones. Scoring at most 1024 pairs at a time bounds the (pairs, d) copies.
_BLOCK = 64
_PAIRS = 1024


def rng_prune(
    u_vec: np.ndarray,
    cand_ids: np.ndarray,
    cand_vecs: np.ndarray,
    m: int,
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
    pruned = np.zeros(len(cand_ids), dtype=bool)
    kept: list[int] = []
    for s in np.argsort(d_u, kind="stable").tolist():
        if len(kept) >= m:
            break
        if pruned[s]:
            continue
        kept.append(s)
        dd = cand_vecs - cand_vecs[s]
        pruned |= np.einsum("ij,ij->i", dd, dd) < d_u
    return cand_ids[kept]


def rng_prune_many(
    u_vecs: np.ndarray, cand: np.ndarray, vecs: np.ndarray, m: int
) -> np.ndarray:
    """:func:`rng_prune` of every row of a padded candidate block.

    Row ``i`` prunes the ids ``cand[i]`` (``NO_EDGE`` padded, anywhere in
    the row) for the node at ``u_vecs[i]``; ``vecs[j]`` is the vector of id
    ``j``. Returns a ``(rows, m)`` int64 array whose row ``i`` is what
    ``rng_prune(u_vecs[i], ids, vecs[ids], m)`` returns for the row's ids
    in order, padded with ``NO_EDGE``.
    """
    cand = np.asarray(cand, dtype=np.int64)
    out = np.full((len(cand), m), NO_EDGE, dtype=np.int64)
    for lo in range(0, len(cand), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        _prune_block(u_vecs[blk], cand[blk], vecs, out[blk])
    return out


def _prune_block(u_vecs, cand, vecs, out) -> None:
    """One block of :func:`rng_prune_many`, written into ``out``.

    The block's candidates are one flat list of ``(row, id)`` pairs that
    holds those neither kept nor pruned, sorted by row and, within a row,
    in the ``(d_u, position)`` order the single-node walk visits them. So
    a step keeps every row's first pair, scores all of the row's pairs
    against it (itself included, which keeps the arrays whole) and drops
    it and the pairs it prunes. Distances are finite.
    """
    m = out.shape[1]
    c = cand.shape[1]
    # One sort of (id, position) keys puts each id's first occurrence
    # first; later occurrences and the padding (id -1) are dropped.
    sid, pos = np.divmod(np.sort((cand + 1) * c + np.arange(c), axis=1), c)
    dr, dc = np.nonzero(sid[:, 1:] == sid[:, :-1])
    live = cand >= 0
    live[dr, pos[dr, dc + 1]] = False
    r, p = np.nonzero(live)
    # The dropped keep d_u = inf, so they sort after every live candidate.
    d = np.full(cand.shape, np.inf, dtype=np.result_type(vecs, u_vecs))
    d[r, p] = _sq_dists(vecs, cand[r, p], u_vecs, r)
    order = np.argsort(d, axis=1, kind="stable")
    walk = np.arange(c) < live.sum(axis=1)[:, None]
    ids = np.take_along_axis(cand, order, axis=1)[walk]
    d_u = np.take_along_axis(d, order, axis=1)[walk]
    r = np.nonzero(walk)[0]
    for step in range(m):
        head = np.empty(len(r), dtype=bool)  # each row's first pair
        head[:1] = True
        np.not_equal(r[1:], r[:-1], out=head[1:])
        kept = ids[head]
        out[r[head], step] = kept
        if step == m - 1 or len(kept) == len(r):
            return
        cut = _sq_dists(vecs, ids, vecs, kept[np.cumsum(head) - 1]) < d_u
        cut |= head
        keep = np.flatnonzero(~cut)
        r, ids, d_u = r[keep], ids[keep], d_u[keep]


def _sq_dists(x, ia, y, ib) -> np.ndarray:
    """Per pair ``k``, ``|x[ia[k]] - y[ib[k]]|^2`` with the float bits of
    :func:`rng_prune` (``einsum`` of the difference), ``_PAIRS`` pairs at a
    time. ``np.take`` copies rows about twice as fast as fancy indexing."""
    out = np.empty(len(ia), dtype=np.result_type(x, y))
    for lo in range(0, len(ia), _PAIRS):
        k = slice(lo, lo + _PAIRS)
        diff = np.take(x, ia[k], axis=0) - np.take(y, ib[k], axis=0)
        out[k] = np.einsum("ij,ij->i", diff, diff)
    return out


def brute_force_rng(vecs: np.ndarray, m: int) -> np.ndarray:
    """Exact approximate-RNG over a small point set (leaf graphs).

    For every node, all other nodes are candidates; the RNG rule with a
    degree cap of ``m`` selects the out-edges, returned as an ``(n, m)``
    int64 block of 0-based ids in walk order, ``NO_EDGE`` padded. One
    ``pairwise_sq`` matrix, then every node's walk in distance order at
    once: each of at most ``m`` steps keeps every live node's next
    unmasked candidate ``c`` and masks, as in :func:`rng_prune`, what
    ``c`` prunes, reading row ``c`` of the matrix where the per-pair rule
    read ``d[s, c]`` and row ``u`` where it read ``d[u, c]``, in float64
    as that rule compared them, so the edges are the same. Only used for
    segment-tree leaves (<= ~64 points) and tests.
    """
    n = len(vecs)
    d = pairwise_sq(vecs).astype(np.float64)
    # Row u in u's walk order: order[u, j] is its j-th nearest node.
    order = np.argsort(d, axis=1, kind="stable")
    d_u = np.take_along_axis(d, order, axis=1)
    open_ = order != np.arange(n)[:, None]  # neither kept nor pruned
    kept = np.full((n, m), NO_EDGE, dtype=np.int64)
    rows = np.arange(n)  # the nodes still walking
    for step in range(m):
        first = open_[rows].argmax(axis=1)
        go = open_[rows, first]
        rows, first = rows[go], first[go]
        if not len(rows):
            break
        c = order[rows, first]
        kept[rows, step] = c
        open_[rows, first] = False
        if step == m - 1:
            break
        open_[rows] &= ~(d[c[:, None], order[rows]] < d_u[rows])
    return kept
