"""Milvus-style baseline (paper Sections 2.2 / 5.1).

Milvus partitions the dataset into consecutive-attribute subsets, builds
an HNSW per subset, and answers an RFANN query by searching every subset
that intersects the query range (applying the range predicate as a
bitset during search, i.e., unconstrained traversal + filtered results)
and merging the per-subset top-k by (distance, rank). The filter only
drops results of the boundary subsets.
"""
from __future__ import annotations

import numpy as np

from repro.baselines._spark_build import (SubsetGraph, build_subset_graphs,
                                          subset_memory_bytes)
from repro.core.neighbors import DistanceCounter


class MilvusLikeIndex:
    """``n_buckets`` consecutive rank partitions, one HNSW-lite each."""

    def __init__(
        self,
        vectors: np.ndarray,
        *,
        n_buckets: int = 10,
        m: int = 16,
        ef: int = 100,
        spark=None,
    ) -> None:
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        n = len(vectors)
        self.n = n
        bounds = np.linspace(0, n, n_buckets + 1, dtype=np.int64)
        self.bounds = bounds  # bucket b covers ranks (bounds[b], bounds[b+1]]
        intervals = {
            b: (bounds[b] + 1, bounds[b + 1])
            for b in range(n_buckets)
            if bounds[b + 1] > bounds[b]
        }
        self.graphs: dict[int, SubsetGraph] = build_subset_graphs(
            spark, self.vectors, intervals, m=m, ef=ef
        )

    def _buckets_for(self, lo: int, hi: int) -> list[int]:
        return [
            b
            for b in self.graphs
            if self.bounds[b] + 1 <= hi and self.bounds[b + 1] >= lo
        ]

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
        merged: list[tuple[float, int]] = []
        for b in self._buckets_for(lo, hi):
            ids, dists = self.graphs[b].search(query, beam=beam,
                                               counter=counter)
            keep = (ids >= lo - 1) & (ids < hi)
            ids, dists = ids[keep], dists[keep]
            top = np.argsort(dists, kind="stable")[:k]
            merged += zip(dists[top].tolist(), (ids[top] + 1).tolist())
        merged.sort()
        return np.asarray([r for _, r in merged[:k]], dtype=np.int64)

    def memory_bytes(self) -> dict[str, int]:
        return subset_memory_bytes(self.vectors, self.graphs)
