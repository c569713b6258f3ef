"""Shared Spark builder: one HNSW-lite graph per rank interval.

Milvus-like partitions, SuperPostfiltering windows, StitchedVamana label
buckets and Oracle-HNSW ranges all need "a proximity graph per
consecutive rank range". This helper builds each interval as one task of
:func:`~repro.core.tasks.run_tasks`, on the driver or in one Spark job,
and returns :class:`SubsetGraph` objects in global ids over the one
shared vector array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.beam_search import beam_search
from repro.core.hnsw import build_hnsw
from repro.core.neighbors import NO_EDGE, DistanceCounter
from repro.core.tasks import run_tasks


@dataclass
class SubsetGraph:
    """An HNSW-lite over the ranks ``[lo, hi]``: row ``i`` of ``adj``
    holds the out-edges of node ``lo - 1 + i``, in global 0-based ids."""

    lo: int
    hi: int
    adj: np.ndarray  # (hi - lo + 1, m) int32, NO_EDGE padded
    entry: int  # global 0-based id
    vectors: np.ndarray  # the whole dataset, shared by every graph

    def search(
        self,
        query: np.ndarray,
        *,
        beam: int,
        counter: DistanceCounter | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Beam search this graph; every scored (0-based id, distance)."""
        adj, off = self.adj, self.lo - 1
        return beam_search(
            query,
            self.vectors,
            lambda u: adj[u - off][adj[u - off] >= 0],
            [self.entry],
            beam=beam,
            counter=counter,
        )


def build_subset_graphs(
    spark,
    vectors: np.ndarray,
    intervals: dict[int, tuple[int, int]],
    *,
    m: int,
    ef: int,
) -> dict[int, SubsetGraph]:
    """Build one HNSW-lite per interval (``gid -> (lo, hi)``, 1-based
    ranks, inclusive).

    One path for both executors (``spark=None`` runs on the driver): each
    interval is one task of :func:`~repro.core.tasks.run_tasks`, sized by
    its number of ranks, whose block is ``[entry, *adj.ravel()]`` shifted
    to global 0-based ids. The vectors travel in the function's closure.
    Deterministic: each interval's insertion order is a permutation
    seeded by ``(0, gid)``, so both executors build identical graphs.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)

    def build_one(gid: int, lo: int, hi: int) -> np.ndarray:
        order = np.random.default_rng((0, gid)).permutation(hi - lo + 1)
        g = build_hnsw(vectors[lo - 1 : hi], m=m, ef_construction=ef,
                       order=order)
        block = np.concatenate(([g.entry], g.adj.ravel()))
        return np.where(block >= 0, block + (lo - 1), NO_EDGE)

    tasks = [(gid, int(lo), int(hi)) for gid, (lo, hi) in intervals.items()]
    blocks = run_tasks(spark, build_one, tasks,
                       [hi - lo + 1 for _, lo, hi in tasks])
    return {
        gid: SubsetGraph(lo=lo, hi=hi, adj=block[1:].reshape(-1, m),
                         entry=int(block[0]), vectors=vectors)
        for (gid, lo, hi), block in zip(tasks, blocks)
    }


def subset_memory_bytes(vectors: np.ndarray,
                        graphs: dict[int, SubsetGraph]) -> dict[str, int]:
    """Table 2 bytes: the shared vectors once, plus every graph's edges."""
    return {"vectors": int(vectors.nbytes),
            "index": int(sum(g.adj.nbytes for g in graphs.values()))}
