"""Materializing the elemental graphs (paper Section 3.2), bottom-up.

Two equivalent builders share the same per-segment kernels:

* :func:`build_irange_index_local` — plain-numpy loop over segments on
  the driver; the build that perfbench's ``mixed`` and ``multiattr``
  workloads and Table 3's driver-local column time, and the tests' build.
* :func:`build_irange_index` — the Spark dataflow: one job per tree
  layer, ``groupBy(segment).applyInPandas`` building every segment of the
  layer in parallel. Layer ``i`` consumes layer ``i+1``'s adjacency
  (child graphs) via a join, which is the paper's bottom-up reuse:

  - **case 1** (candidates from the child containing ``u``): copy ``u``'s
    edges in the child elemental graph — anything else in that child is
    already RNG-pruned there, hence would be pruned in the parent too;
  - **case 2** (candidates from the other child): beam-search the other
    child's elemental graph for ``EF`` approximate nearest neighbors;

  then RNG-prune the union to at most ``m`` out-edges.

Both builders are deterministic, so they produce identical indexes — a
unit test asserts this. Adjacency flows through the pipeline keyed by
global 1-based rank; the driver packs per-layer ``(n, m)`` arrays.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.beam_search import beam_search
from repro.core.irange_graph import IRangeGraphIndex
from repro.core.neighbors import empty_adjacency
from repro.core.rng_prune import brute_force_rng, rng_prune
from repro.core.segment_tree import Segment, SegmentTree

DEFAULT_M = 16
DEFAULT_EF = 100
DEFAULT_LEAF = 64


# ------------------------------------------------------------------ kernels
def build_leaf_segment(ranks: np.ndarray, vecs: np.ndarray, m: int) -> list[np.ndarray]:
    """Exact approximate-RNG over one leaf segment (<= leaf_size points).

    Returns, per row, the out-neighbors as global ranks.
    """
    nbr_local = brute_force_rng(vecs, m)
    return [ranks[l] for l in nbr_local]


def build_parent_segment(
    seg: Segment,
    ranks: np.ndarray,
    vecs: np.ndarray,
    child_nbrs: list[np.ndarray],
    m: int,
    ef: int,
) -> list[np.ndarray]:
    """Build one parent segment's elemental graph from its two children.

    ``ranks`` must be sorted ascending; ``child_nbrs[i]`` is row ``i``'s
    adjacency (global ranks) in its child's elemental graph. Returns
    per-row out-neighbors as global ranks.
    """
    mid = (seg.lo + seg.hi) // 2
    is_left = ranks <= mid
    rank_to_local = {r: i for i, r in enumerate(ranks.tolist())}
    # The child graphs in local row numbers, built once for the segment
    # (a child's edges stay inside the child, so every rank maps).
    local_nbrs = [
        np.asarray([rank_to_local[r] for r in nb.tolist()], dtype=np.int64)
        for nb in child_nbrs
    ]
    left, right = np.nonzero(is_left)[0], np.nonzero(~is_left)[0]

    out: list[np.ndarray] = []
    for i in range(len(ranks)):
        other = right if is_left[i] else left
        # case 1: u's edges in its own child graph survive as candidates.
        cand = child_nbrs[i].tolist()
        # case 2: approximate NNs of u searched in the other child graph,
        # entered at its mid-rank node.
        if len(other) > 0:
            ids, dists = beam_search(
                vecs[i], vecs, local_nbrs.__getitem__,
                [int(other[len(other) // 2])], beam=ef,
            )
            best = ids[np.argsort(dists, kind="stable")[:ef]]
            cand.extend(ranks[best].tolist())
        cand_local = [rank_to_local[c] for c in cand]
        kept = rng_prune(vecs[i], np.asarray(cand, dtype=np.int64),
                         vecs[cand_local], m)
        out.append(kept)
    return out


# ------------------------------------------------------------- local build
def build_irange_index_local(
    vectors: np.ndarray,
    *,
    m: int = DEFAULT_M,
    ef: int = DEFAULT_EF,
    leaf_size: int = DEFAULT_LEAF,
) -> IRangeGraphIndex:
    """Driver-only bottom-up build (reference implementation)."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    n = len(vectors)
    tree = SegmentTree(n, leaf_size)
    layer_adj = [empty_adjacency(n, m) for _ in range(tree.num_layers)]
    # prev_nbrs[rank] = adjacency (ranks) in the next-deeper layer's graph.
    prev_nbrs: dict[int, np.ndarray] = {}
    for layer in range(tree.num_layers - 1, -1, -1):
        cur: dict[int, np.ndarray] = {}
        for seg in tree.segments_at(layer):
            ranks = np.arange(seg.lo, seg.hi + 1, dtype=np.int64)
            vecs = vectors[ranks - 1]
            if tree.is_leaf(seg):
                nbrs = build_leaf_segment(ranks, vecs, m)
            else:
                child = [prev_nbrs[int(r)] for r in ranks]
                nbrs = build_parent_segment(seg, ranks, vecs, child, m, ef)
            for r, nb in zip(ranks, nbrs):
                cur[int(r)] = np.asarray(nb, dtype=np.int64)
                k = min(len(nb), m)
                layer_adj[layer][r - 1, :k] = np.asarray(nb[:k]) - 1
        # Leaves above deeper layers keep their (deepest) adjacency so the
        # next parent layer up can consume every child row.
        merged = dict(prev_nbrs)
        merged.update(cur)
        prev_nbrs = merged
    return IRangeGraphIndex(vectors=vectors, tree=tree, layer_adj=layer_adj, m=m)


# ------------------------------------------------------------- spark build
def build_irange_index(
    spark,
    vectors_df,
    *,
    m: int = DEFAULT_M,
    ef: int = DEFAULT_EF,
    leaf_size: int = DEFAULT_LEAF,
) -> IRangeGraphIndex:
    """Distributed bottom-up build.

    ``vectors_df`` has columns ``rank`` (1-based long, dense, contiguous)
    and ``vector`` (array<float>). One Spark job per tree layer; segments
    of a layer build independently inside ``applyInPandas``.
    """
    from pyspark.sql import functions as F
    from pyspark.sql.types import (ArrayType, IntegerType, LongType,
                                   StructField, StructType)

    pdf_all = vectors_df.select("rank", "vector").orderBy("rank").toPandas()
    n = len(pdf_all)
    vectors = np.ascontiguousarray(
        np.stack(pdf_all["vector"].to_numpy()), dtype=np.float32
    )
    assert pdf_all["rank"].iloc[0] == 1 and pdf_all["rank"].iloc[-1] == n, (
        "rank column must be dense 1..n"
    )
    tree = SegmentTree(n, leaf_size)

    out_schema = StructType(
        [
            StructField("rank", LongType()),
            StructField("nbrs", ArrayType(IntegerType())),
        ]
    )

    base = vectors_df.select("rank", "vector")
    # prev_adj_df: (rank, nbrs) adjacency of the next-deeper layer.
    prev_adj_df = None
    layer_pdfs: list[pd.DataFrame] = []

    for layer in range(tree.num_layers - 1, -1, -1):
        segs = tree.segments_at(layer)
        seg_lo = np.asarray([s.lo for s in segs], dtype=np.int64)
        seg_hi = np.asarray([s.hi for s in segs], dtype=np.int64)
        seg_by_lo = {int(s.lo): s for s in segs}
        member_lo = F.udf(
            lambda r: int(seg_lo[np.searchsorted(seg_lo, r, side="right") - 1]),
            LongType(),
        )
        df = base.withColumn("seg_lo", member_lo(F.col("rank")))
        # Drop ranks outside every layer-`layer` segment (possible only
        # for non-uniform trees where some leaves sit above this layer).
        hi_by_lo = {int(l): int(h) for l, h in zip(seg_lo, seg_hi)}
        in_layer = F.udf(lambda r, lo: bool(r <= hi_by_lo[lo]), "boolean")
        df = df.where(in_layer(F.col("rank"), F.col("seg_lo")))
        if prev_adj_df is not None:
            df = df.join(prev_adj_df, on="rank", how="left")
        else:
            df = df.withColumn("nbrs", F.lit(None).cast(ArrayType(IntegerType())))

        def build_group(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.sort_values("rank").reset_index(drop=True)
            seg = seg_by_lo[int(pdf["seg_lo"].iloc[0])]
            ranks = pdf["rank"].to_numpy(dtype=np.int64)
            vecs = np.ascontiguousarray(
                np.stack(pdf["vector"].to_numpy()), dtype=np.float32
            )
            if len(seg) <= tree.leaf_size:
                nbrs = build_leaf_segment(ranks, vecs, m)
            else:
                child = [
                    np.asarray(x, dtype=np.int64)
                    if x is not None and not (np.isscalar(x) and pd.isna(x))
                    else np.empty(0, dtype=np.int64)
                    for x in pdf["nbrs"]
                ]
                nbrs = build_parent_segment(seg, ranks, vecs, child, m, ef)
            return pd.DataFrame(
                {
                    "rank": ranks,
                    "nbrs": [np.asarray(nb, dtype=np.int32) for nb in nbrs],
                }
            )

        adj_df = df.groupBy("seg_lo").applyInPandas(build_group, out_schema)
        layer_pdf = adj_df.toPandas()
        layer_pdfs.append((layer, layer_pdf))
        # Next (shallower) layer consumes this layer's graphs; rows whose
        # leaf sits above keep their previously computed adjacency.
        if prev_adj_df is None:
            prev_adj_df = spark.createDataFrame(layer_pdf, schema=out_schema)
        else:
            built = set(layer_pdf["rank"].tolist())
            prev_pdf = prev_adj_df.toPandas()
            keep = prev_pdf[~prev_pdf["rank"].isin(built)]
            merged = pd.concat([layer_pdf, keep], ignore_index=True)
            prev_adj_df = spark.createDataFrame(merged, schema=out_schema)

    layer_adj = [empty_adjacency(n, m) for _ in range(tree.num_layers)]
    for layer, pdf in layer_pdfs:
        for r, nb in zip(pdf["rank"].to_numpy(), pdf["nbrs"]):
            nb = np.asarray(nb, dtype=np.int64)
            k = min(len(nb), m)
            layer_adj[layer][int(r) - 1, :k] = nb[:k] - 1
    return IRangeGraphIndex(vectors=vectors, tree=tree, layer_adj=layer_adj, m=m)
