"""Shared Spark builder: one HNSW-lite graph per subset of the dataset.

Milvus-like partitions, SuperPostfiltering windows, StitchedVamana label
buckets and Oracle-HNSW ranges all need "a proximity graph per rank
subset". This helper builds each subset as one task of
:func:`~repro.core.tasks.run_tasks`, on the driver or in one Spark job,
and returns searchable :class:`SubsetGraph` objects.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hnsw import FlatGraph, build_hnsw
from repro.core.neighbors import DistanceCounter
from repro.core.tasks import run_tasks


@dataclass
class SubsetGraph:
    """An HNSW-lite over a subset of ranks, searchable in global terms."""

    ranks: np.ndarray  # sorted 1-based global ranks (local id -> rank)
    graph: FlatGraph

    def search(
        self,
        query: np.ndarray,
        *,
        beam: int,
        k: int,
        counter: DistanceCounter | None = None,
        rank_range: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Top-k global ranks; optionally post-filtered to ``rank_range``
        (the traversal is unconstrained)."""
        ranks = self.ranks
        keep = None
        if rank_range is not None:
            lo, hi = rank_range

            def keep(ids: np.ndarray) -> np.ndarray:
                r = ranks[ids]
                return (r >= lo) & (r <= hi)

        local = self.graph.search(query, beam=beam, k=k, counter=counter,
                                  result_keep=keep)
        return ranks[local]

    def memory_bytes(self) -> int:
        return int(self.graph.adj.nbytes)


def build_subset_graphs(
    spark,
    vectors: np.ndarray,
    subsets: dict[int, np.ndarray],
    *,
    m: int,
    ef: int,
    seed: int = 0,
) -> dict[int, SubsetGraph]:
    """Build one HNSW-lite per subset (``gid -> sorted 1-based ranks``).

    One path for both executors (``spark=None`` runs on the driver): each
    subset is one task of :func:`~repro.core.tasks.run_tasks`, sized by
    its number of ranks, whose block is ``[entry, *adj.ravel()]``. The
    vectors and ranks travel in the function's closure. Deterministic:
    each subset's insertion order comes from a seeded permutation keyed
    by ``(seed, gid)``, so both executors build identical graphs.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    subsets = {int(gid): np.sort(np.asarray(r, dtype=np.int64))
               for gid, r in subsets.items()}

    def build_one(gid: int) -> np.ndarray:
        ranks = subsets[gid]
        order = np.random.default_rng((seed, gid)).permutation(len(ranks))
        g = build_hnsw(vectors[ranks - 1], m=m, ef_construction=ef,
                       order=order)
        return np.concatenate(([g.entry], g.adj.ravel()))

    gids = list(subsets)
    blocks = run_tasks(spark, build_one, [(g,) for g in gids],
                       [len(subsets[g]) for g in gids])
    return {
        gid: SubsetGraph(ranks=subsets[gid], graph=FlatGraph(
            vectors=vectors[subsets[gid] - 1],
            adj=block[1:].reshape(-1, m), entry=int(block[0])))
        for gid, block in zip(gids, blocks)
    }
