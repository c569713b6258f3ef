"""Shared Spark builder: one HNSW-lite graph per subset of the dataset.

Milvus-like partitions, SuperPostfiltering windows, StitchedVamana label
buckets and Oracle-HNSW ranges all need "a proximity graph per rank
subset". This helper builds them on the driver or as one Spark job
(``mapInPandas`` over one row of gids per task), with the same
per-subset build either way, and returns searchable :class:`SubsetGraph`
objects.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hnsw import FlatGraph, build_hnsw
from repro.core.neighbors import DistanceCounter, adjacency_bytes


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
        in_search_filter: bool = False,
    ) -> np.ndarray:
        """Top-k global ranks; optionally constrain to ``rank_range``.

        ``in_search_filter=False`` post-filters results (traversal is
        unconstrained); ``True`` applies the range during traversal
        (In-filtering semantics).
        """
        ranks = self.ranks
        keep = visit = None
        if rank_range is not None:
            lo, hi = rank_range

            def keep(ids: np.ndarray) -> np.ndarray:
                r = ranks[ids]
                return (r >= lo) & (r <= hi)

            if in_search_filter:
                def visit(u: int) -> bool:
                    return lo <= ranks[u] <= hi

        local = self.graph.search(
            query, beam=beam, k=k, counter=counter,
            visit_filter=visit, result_keep=keep,
        )
        return ranks[local]

    def memory_bytes(self) -> int:
        return adjacency_bytes(self.graph.adj)


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

    Both executors call the same ``build_one``. With ``spark=None`` the
    driver loops over the subsets; with a SparkSession one
    ``mapInPandas`` job (no shuffle) builds them in ``defaultParallelism``
    tasks balanced by subset size, each task a row of gids. The vectors
    and ranks travel in the function's closure, and each graph's
    adjacency comes back as bytes. Deterministic: each subset's insertion
    order comes from a seeded permutation keyed by ``(seed, gid)``, so
    both executors build identical graphs.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    subsets = {int(gid): np.sort(np.asarray(r, dtype=np.int64))
               for gid, r in subsets.items()}

    def build_one(gid: int, ranks: np.ndarray) -> FlatGraph:
        order = np.random.default_rng((seed, gid)).permutation(len(ranks))
        return build_hnsw(vectors[ranks - 1], m=m, ef_construction=ef,
                          order=order)

    if spark is None:
        graphs = {gid: build_one(gid, r) for gid, r in subsets.items()}
    else:
        def build(frames):
            for pdf in frames:
                pdf = pdf.explode("gid").astype({"gid": "int64"})
                built = [build_one(g, subsets[g]) for g in pdf["gid"].tolist()]
                yield pdf.assign(adj=[g.adj.tobytes() for g in built],
                                 entry=[g.entry for g in built])

        # A few tasks, not one per subset: local Spark spends ~0.3 s of a
        # core on every Python task. Largest subsets first, each to the
        # least-loaded of defaultParallelism tasks, one row per task.
        tasks = [[] for _ in range(min(len(subsets),
                                       spark.sparkContext.defaultParallelism))]
        load = [0] * len(tasks)
        for gid in sorted(subsets, key=lambda g: -len(subsets[g])):
            k = load.index(min(load))
            tasks[k].append(gid)
            load[k] += len(subsets[gid])
        out = (
            spark.createDataFrame([(t,) for t in tasks], "gid array<long>")
            .mapInPandas(build, "gid long, adj binary, entry long")
            .toPandas()
        )
        graphs = {
            int(row.gid): FlatGraph(
                vectors=vectors[subsets[int(row.gid)] - 1],
                adj=np.frombuffer(row.adj, dtype=np.int32).reshape(-1, m),
                entry=int(row.entry),
            )
            for row in out.itertuples()
        }
    return {gid: SubsetGraph(ranks=subsets[gid], graph=g)
            for gid, g in graphs.items()}
