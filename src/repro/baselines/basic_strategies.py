"""Pre-filtering, the exact RFANN baseline (paper Section 2.2).

Binary search isolates the in-range rank slice, then a linear scan of
its vectors finds the exact top-k. Recall 1.0 by construction; cost
proportional to the range length.
"""
from __future__ import annotations

import numpy as np

from repro.core.neighbors import DistanceCounter, dist_batch


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
