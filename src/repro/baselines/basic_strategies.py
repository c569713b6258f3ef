"""The three basic RFANN strategies (paper Section 2.2).

* **Pre-filtering** — binary search isolates the in-range rank slice,
  then a linear scan of its vectors finds the exact top-k. Recall 1.0 by
  construction; cost proportional to the range length.
* **Post-filtering** — greedy beam search on a single HNSW built over
  the whole dataset; in-range results are filtered out of the scored set
  afterwards.
* **In-filtering** — the same graph, but traversal visits in-range nodes
  only (entered from in-range seeds).

Post- and In-filtering share one :class:`WholeGraphIndex` build and
are chosen per query with ``mode="post"`` or ``mode="in"``.
"""
from __future__ import annotations

import numpy as np

from repro.core.hnsw import FlatGraph, build_hnsw
from repro.core.neighbors import (DistanceCounter, adjacency_bytes,
                                  dist_batch)


class PrefilterIndex:
    """Exact linear scan over the in-range slice (ranks are sorted)."""

    def __init__(self, vectors: np.ndarray) -> None:
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)

    def search(
        self,
        query: np.ndarray,
        lo: int,
        hi: int,
        *,
        beam: int = 0,  # unused; Pre-filtering has no knob (Section 5.1)
        k: int,
        counter: DistanceCounter | None = None,
    ) -> np.ndarray:
        lo = max(1, lo)
        hi = min(len(self.vectors), hi)
        if lo > hi:
            return np.empty(0, dtype=np.int64)
        dist = dist_batch(query, self.vectors[lo - 1 : hi], counter)
        order = np.argsort(dist, kind="stable")[:k]
        return order + lo

    def memory_bytes(self) -> dict[str, int]:
        return {"vectors": int(self.vectors.nbytes), "index": 0}


class WholeGraphIndex:
    """One HNSW-lite over all objects; Post- or In-filtering at query time."""

    def __init__(self, vectors: np.ndarray, *, m: int = 16, ef: int = 100,
                 seed: int = 0) -> None:
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        self.graph: FlatGraph = build_hnsw(
            self.vectors, m=m, ef_construction=ef, seed=seed
        )

    def search(
        self,
        query: np.ndarray,
        lo: int,
        hi: int,
        *,
        beam: int,
        k: int,
        counter: DistanceCounter | None = None,
        mode: str = "post",
    ) -> np.ndarray:
        """Top-k 1-based ranks with the chosen filtering strategy."""
        n = len(self.vectors)
        lo = max(1, lo)
        hi = min(n, hi)
        if lo > hi:
            return np.empty(0, dtype=np.int64)
        lo0, hi0 = lo - 1, hi - 1

        def keep(ids: np.ndarray) -> np.ndarray:
            return (ids >= lo0) & (ids <= hi0)

        if mode == "post":
            res = self.graph.search(
                query, beam=beam, k=k, counter=counter, result_keep=keep
            )
        elif mode == "in":
            # In-filtering needs in-range entries: the fixed entry point
            # may be out of range, so seed from ranks spread over [lo, hi].
            entries = np.unique(
                np.linspace(lo0, hi0, num=min(4, hi0 - lo0 + 1), dtype=np.int64)
            )
            res = self.graph.search(
                query,
                beam=beam,
                k=k,
                counter=counter,
                visit_filter=lambda u: lo0 <= u <= hi0,
                result_keep=keep,
                entries=[int(e) for e in entries],
            )
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return res + 1

    def memory_bytes(self) -> dict[str, int]:
        return {
            "vectors": int(self.vectors.nbytes),
            "index": adjacency_bytes(self.graph.adj),
        }
