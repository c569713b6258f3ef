"""Segment tree over attribute ranks [1, n] (paper Section 3.2.1).

The tree is defined recursively: the root covers ``[1, n]``; a node
covering ``[l, r]`` splits into ``[l, mid]`` and ``[mid+1, r]`` with
``mid = (l + r) // 2``. Recursion stops when a segment holds at most
``leaf_size`` objects — the paper stops at single objects, but a graph on
<= 64 points is searched exhaustively anyway, so a leaf cutoff trades a
few tree layers for nothing (this also matches the paper's duplicate-
value note: several objects may share a tree node).

Ranks are 1-based throughout, matching the paper's ``[L, R]`` notation.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Segment:
    """A tree node: layer index, rank interval, position within layer."""

    layer: int
    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def covered_by(self, lo: int, hi: int) -> bool:
        return lo <= self.lo and self.hi <= hi

    def intersection(self, lo: int, hi: int) -> tuple[int, int]:
        """Intersection with a query range as (lo, hi); empty if lo > hi."""
        return max(self.lo, lo), min(self.hi, hi)


class SegmentTree:
    """Static segment tree over ``[1, n]`` with a leaf-size cutoff."""

    def __init__(self, n: int, leaf_size: int = 1) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.n = n
        self.leaf_size = leaf_size
        self.layers: list[list[Segment]] = []
        frontier = [Segment(0, 1, n)]
        while frontier:
            self.layers.append(frontier)
            nxt: list[Segment] = []
            for seg in frontier:
                if len(seg) > leaf_size:
                    mid = (seg.lo + seg.hi) // 2
                    nxt.append(Segment(seg.layer + 1, seg.lo, mid))
                    nxt.append(Segment(seg.layer + 1, mid + 1, seg.hi))
            frontier = nxt
        self.num_layers = len(self.layers)

    def is_leaf(self, seg: Segment) -> bool:
        return len(seg) <= self.leaf_size

    def root(self) -> Segment:
        return self.layers[0][0]

    def decompose(self, lo: int, hi: int) -> list[Segment]:
        """Canonical decomposition of ``[lo, hi]`` into disjoint segments.

        The classical segment-tree range decomposition — used by the
        ``BasicSearch`` ablation baseline (one independent ANN search per
        returned segment). At most ``O(log n)`` segments when
        ``leaf_size == 1``; with a leaf cutoff, boundary leaves may cover
        ranks outside ``[lo, hi]``, so callers must still range-filter
        leaf results (``BasicSearch`` does).
        """
        if not (1 <= lo <= hi <= self.n):
            raise ValueError(f"bad range [{lo}, {hi}] for n={self.n}")
        out: list[Segment] = []

        def rec(seg: Segment) -> None:
            s_lo, s_hi = seg.intersection(lo, hi)
            if s_lo > s_hi:
                return
            if seg.covered_by(lo, hi) or self.is_leaf(seg):
                out.append(seg)
                return
            mid = (seg.lo + seg.hi) // 2
            rec(Segment(seg.layer + 1, seg.lo, mid))
            rec(Segment(seg.layer + 1, mid + 1, seg.hi))

        rec(self.root())
        return out

    def segments_at(self, layer: int) -> list[Segment]:
        return self.layers[layer]

