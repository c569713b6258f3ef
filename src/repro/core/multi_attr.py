"""Multi-attribute RFANN extension (paper Section 4).

The index is built on attribute 1 (the segment tree orders objects by its
rank). A conjunctive query supplies rank ranges on both attributes; the
dedicated graph improvised for the attribute-1 range contains only
attribute-1-in-range objects, and the attribute-2 predicate is handled by
a search strategy:

* ``mode="post"``  — Post-filtering: traverse freely, filter results.
* ``mode="prob"``  — the paper's iRangeGraph+: visit an out-of-range
  neighbor with probability ``p = exp(-t)``, where ``t`` is the number
  of consecutive out-of-range objects visited on the search path
  (in-range visits reset ``t``).

Results always satisfy both predicates.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.irange_graph import IRangeGraphIndex
from repro.core.neighbors import DistanceCounter


class MultiAttrIndex:
    """iRangeGraph over attribute 1 + a strategy for attribute 2.

    ``attr2_rank[i]`` is the 1-based attribute-2 rank of the object with
    attribute-1 rank ``i+1`` (i.e., aligned with the index's row order).
    """

    def __init__(self, index: IRangeGraphIndex, attr2_rank: np.ndarray) -> None:
        assert len(attr2_rank) == index.n
        self.index = index
        self.attr2_rank = np.asarray(attr2_rank, dtype=np.int64)

    def search(
        self,
        query: np.ndarray,
        range1: tuple[int, int],
        range2: tuple[int, int],
        *,
        beam: int,
        k: int,
        mode: str = "post",
        counter: DistanceCounter | None = None,
        seed: int = 0,
    ) -> np.ndarray:
        """Conjunctive RFANN; returns up to ``k`` attribute-1 ranks."""
        lo1, hi1 = range1
        lo2, hi2 = range2
        a2 = self.attr2_rank

        def keep(ids: np.ndarray) -> np.ndarray:
            r2 = a2[ids]
            return (r2 >= lo2) & (r2 <= hi2)

        if mode == "post":
            visit = None
        elif mode == "prob":
            rng = np.random.default_rng(seed)
            state = {"t": 0}

            def visit(u: int) -> bool:
                if lo2 <= a2[u] <= hi2:
                    state["t"] = 0
                    return True
                if rng.random() < math.exp(-state["t"]):
                    state["t"] += 1
                    return True
                return False

        else:
            raise ValueError(f"unknown mode {mode!r}")

        return self.index.search(
            query,
            lo1,
            hi1,
            beam=beam,
            k=k,
            counter=counter,
            visit_filter=visit,
            result_keep=keep,
        )

    def memory_bytes(self) -> dict[str, int]:
        mb = self.index.memory_bytes()
        mb["index"] += int(self.attr2_rank.nbytes)
        return mb
