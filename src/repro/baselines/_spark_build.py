"""Shared Spark builder: one HNSW-lite graph per subset of the dataset.

Milvus-like partitions, SuperPostfiltering windows, StitchedVamana label
buckets and Oracle-HNSW ranges all need "a proximity graph per rank
subset". This helper builds them on the driver or as one Spark job
(``groupBy(gid).applyInPandas`` over ``(gid, rank)`` rows, one subset per
group), with the same per-subset build either way, and returns
searchable :class:`SubsetGraph` objects.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.hnsw import FlatGraph, build_hnsw
from repro.core.neighbors import (DistanceCounter, adjacency_bytes,
                                  pack_neighbors)


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
    driver loops over the subsets; with a SparkSession each subset is one
    ``applyInPandas`` group of ``(gid, rank)`` rows, the vectors travel in
    the function's closure, and the driver packs the returned neighbor
    lists back into padded adjacencies. Deterministic: each subset's
    insertion order comes from a seeded permutation keyed by
    ``(seed, gid)``, so both executors build identical graphs.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)

    def build_one(gid: int, ranks: np.ndarray) -> SubsetGraph:
        ranks = np.sort(np.asarray(ranks, dtype=np.int64))
        sub = vectors[ranks - 1]
        order = np.random.default_rng((seed, gid)).permutation(len(ranks))
        g = build_hnsw(sub, m=m, ef_construction=ef, order=order)
        return SubsetGraph(ranks=ranks, graph=g)

    if spark is None:
        return {gid: build_one(gid, r) for gid, r in subsets.items()}

    pdf = pd.DataFrame(
        [(int(gid), int(r)) for gid, ranks in subsets.items() for r in ranks],
        columns=["gid", "rank"],
    )

    def build_group(g: pd.DataFrame) -> pd.DataFrame:
        gid = int(g["gid"].iloc[0])
        sg = build_one(gid, g["rank"].to_numpy())
        return pd.DataFrame(
            {
                "gid": gid,
                "rank": sg.ranks,
                "nbrs": [row[row >= 0].tolist() for row in sg.graph.adj],
                "entry": int(sg.graph.entry),
            }
        )

    out = (
        spark.createDataFrame(pdf)
        .groupBy("gid")
        .applyInPandas(
            build_group, "gid int, rank long, nbrs array<int>, entry int"
        )
        .toPandas()
    )
    result: dict[int, SubsetGraph] = {}
    for gid, grp in out.groupby("gid"):
        grp = grp.sort_values("rank")
        ranks = grp["rank"].to_numpy(dtype=np.int64)
        adj = pack_neighbors(list(grp["nbrs"]), m)
        graph = FlatGraph(
            vectors=vectors[ranks - 1], adj=adj, entry=int(grp["entry"].iloc[0])
        )
        result[int(gid)] = SubsetGraph(ranks=ranks, graph=graph)
    return result
