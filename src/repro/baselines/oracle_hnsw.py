"""Oracle-HNSW (paper Section 5.2.4).

For every *distinct* query range in the workload, materialize an HNSW on
exactly the in-range objects — the "ideal" dedicated index whose space
cost (``O(n^3 m)`` over all possible ranges) makes it impractical. The
paper uses it to quantify the gap between iRangeGraph's improvised
dedicated graphs and graphs built from scratch: Oracle-HNSW should win,
but by less than 2x qps at 0.9 recall.

Graph builds run through the shared Spark subset builder (one group per
distinct range), so a 10-range Figure-4 workload builds in parallel.
"""
from __future__ import annotations

import numpy as np

from repro.baselines._spark_build import (SubsetGraph, build_subset_graphs,
                                          subset_memory_bytes)
from repro.core.beam_search import top_k
from repro.core.neighbors import DistanceCounter


class OracleHnswIndex:
    """One from-scratch HNSW per distinct query range."""

    def __init__(
        self,
        vectors: np.ndarray,
        ranges: list[tuple[int, int]],
        *,
        m: int = 16,
        ef: int = 100,
        spark=None,
    ) -> None:
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        self.n = len(vectors)
        self.ranges = sorted({(int(lo), int(hi)) for lo, hi in ranges})
        self.graphs: dict[int, SubsetGraph] = build_subset_graphs(
            spark, self.vectors, dict(enumerate(self.ranges)), m=m, ef=ef
        )
        self._by_range = {r: i for i, r in enumerate(self.ranges)}

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
        key = (int(lo), int(hi))
        if key not in self._by_range:
            raise KeyError(
                f"Oracle-HNSW has no graph for range {key}; it only serves "
                "the ranges it was materialized for"
            )
        g = self.graphs[self._by_range[key]]
        return top_k(*g.search(query, beam=beam, counter=counter), k) + 1

    def memory_bytes(self) -> dict[str, int]:
        return subset_memory_bytes(self.vectors, self.graphs)
