"""SuperPostfiltering baseline (Engels et al. [29]; paper Sections 2.2, 3.4).

Index phase: for each level ``i`` build graphs for *half-overlapping*
windows of length ``w_i = n / 2^i`` at stride ``w_i / 2`` (the paper's
β = 2 setting). Any query range of length ``s <= w/2`` is then covered by
some window of length ``w``, so the smallest covering window holds at
most ~``4s`` objects — of which up to ``3s`` are out-of-range, which is
exactly the Post-filtering overhead the paper criticizes.

Query phase: find the smallest window covering ``[L, R]``, run
Post-filtering on its graph.

Memory: every object appears ~twice per level (overlap), so the index is
roughly 2x iRangeGraph's — matching Table 2's ordering.
"""
from __future__ import annotations

import numpy as np

from repro.baselines._spark_build import (SubsetGraph, build_subset_graphs,
                                          subset_memory_bytes)
from repro.core.beam_search import top_k
from repro.core.neighbors import DistanceCounter


def window_layout(n: int, min_len: int) -> list[tuple[int, int]]:
    """All (lo, hi) windows: per level, length ``w`` windows at stride
    ``w/2``, down to windows of ``min_len`` objects. Includes [1, n]."""
    out: list[tuple[int, int]] = [(1, n)]
    w = n // 2
    while w >= max(2, min_len):
        stride = max(1, w // 2)
        lo = 1
        while lo <= n:
            hi = min(n, lo + w - 1)
            out.append((lo, hi))
            if hi == n:
                break
            lo += stride
        w //= 2
    return sorted(set(out), key=lambda x: (x[1] - x[0], x[0]))


class SuperPostfilterIndex:
    """β = 2 half-overlapping window graphs + Post-filtering search."""

    def __init__(
        self,
        vectors: np.ndarray,
        *,
        m: int = 16,
        ef: int = 100,
        min_window: int = 64,
        spark=None,
    ) -> None:
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        self.n = len(vectors)
        self.windows = window_layout(self.n, min_window)
        self.graphs: dict[int, SubsetGraph] = build_subset_graphs(
            spark, self.vectors, dict(enumerate(self.windows)), m=m, ef=ef
        )

    def covering_window(self, lo: int, hi: int) -> int:
        """Index of the smallest window containing [lo, hi] (ties: first)."""
        for i, (wlo, whi) in enumerate(self.windows):  # sorted by length
            if wlo <= lo and hi <= whi:
                return i
        raise AssertionError("window [1, n] always covers")

    def search(
        self,
        query: np.ndarray,
        lo: int,
        hi: int,
        *,
        beam: int,
        k: int,
        counter: DistanceCounter | None = None,
    ) -> np.ndarray:
        lo = max(1, lo)
        hi = min(self.n, hi)
        if lo > hi:
            return np.empty(0, dtype=np.int64)
        g = self.graphs[self.covering_window(lo, hi)]
        ids, dists = g.search(query, beam=beam, counter=counter)
        return top_k(ids, dists, k,
                     keep=lambda i: (i >= lo - 1) & (i < hi)) + 1

    def memory_bytes(self) -> dict[str, int]:
        return subset_memory_bytes(self.vectors, self.graphs)
