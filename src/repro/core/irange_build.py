"""Materializing the elemental graphs (paper Section 3.2), bottom-up.

One builder, two executors. The builder walks the tree layers deepest
first and carries one ``(n, m)`` int32 ``child`` adjacency: the graph of
the next-deeper layer, in which every row that layer built is
overwritten and nodes whose leaf sits higher keep their deepest row. A
layer is a list of tasks ``(seg_lo, seg_hi, row_lo, row_hi)``: a leaf
segment is one task (exact approximate-RNG over its points), a parent
segment is split into row chunks, because once its children's graphs
exist every node of it builds independently:

- **case 1** (candidates from the child containing ``u``): copy ``u``'s
  edges in the child elemental graph — anything else in that child is
  already RNG-pruned there, hence would be pruned in the parent too;
- **case 2** (candidates from the other child): beam-search the other
  child's elemental graph for ``EF`` approximate nearest neighbors;

then RNG-prune the union to at most ``m`` out-edges. A task returns its
rows as a packed ``(rows, m)`` int32 block of 0-based ids.

* :func:`build_irange_index_local` maps the tasks in a driver loop, one
  task per segment; perfbench's ``mixed`` and ``multiattr`` workloads,
  Table 3's driver-local column and the tests time this build.
* :func:`build_irange_index` runs each layer as one Spark job: a
  ``mapInPandas`` over a DataFrame of the layer's tasks, with the vectors
  and the ``child`` array in the function's closure, so no row is joined
  or shuffled. Parent segments are split so that a layer has at least
  ``defaultParallelism`` tasks; each task's block comes back as bytes.

Both executors run the same deterministic kernels on the same rows, so
they produce identical indexes — unit tests assert this.
"""
from __future__ import annotations

import numpy as np

from repro.core.beam_search import beam_search
from repro.core.irange_graph import IRangeGraphIndex
from repro.core.neighbors import empty_adjacency, pack_neighbors
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
    rows: range | None = None,
) -> list[np.ndarray]:
    """Build one parent segment's elemental graph from its two children.

    ``ranks`` must be sorted ascending; ``child_nbrs[i]`` is row ``i``'s
    adjacency (global ranks) in its child's elemental graph. Returns the
    out-neighbors (global ranks) of the local ``rows`` (default: all).
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
    for i in range(len(ranks)) if rows is None else rows:
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


# ------------------------------------------------------------------ builder
def _layer_tasks(tree: SegmentTree, layer: int,
                 parallelism: int) -> list[tuple[int, int, int, int]]:
    """The layer's tasks ``(seg_lo, seg_hi, row_lo, row_hi)``, rows local
    and half-open: one per leaf segment, and each parent segment split
    into ``ceil(parallelism / segments)`` contiguous row chunks."""
    segs = tree.segments_at(layer)
    chunks = -(-parallelism // len(segs))
    tasks = []
    for s in segs:
        k = 1 if tree.is_leaf(s) else min(chunks, len(s))
        bounds = [len(s) * j // k for j in range(k + 1)]
        tasks += [(s.lo, s.hi, a, b) for a, b in zip(bounds, bounds[1:])]
    return tasks


def _build_task(task, layer: int, vectors: np.ndarray, child: np.ndarray,
                leaf_size: int, m: int, ef: int) -> np.ndarray:
    """One task's rows as a packed ``(row_hi - row_lo, m)`` int32 block.

    Leaf tasks cover their whole segment; a parent task reads its whole
    segment's rows of ``child`` (the 0-based adjacency one layer down).
    """
    seg_lo, seg_hi, row_lo, row_hi = (int(x) for x in task)
    ranks = np.arange(seg_lo, seg_hi + 1, dtype=np.int64)
    vecs = vectors[seg_lo - 1:seg_hi]
    if seg_hi - seg_lo + 1 <= leaf_size:
        nbrs = build_leaf_segment(ranks, vecs, m)
    else:
        # Rows are packed from the left, so each row's edges are a prefix.
        adj = child[seg_lo - 1:seg_hi].astype(np.int64) + 1
        child_nbrs = [row[:k] for row, k in
                      zip(adj, (adj > 0).sum(axis=1).tolist())]
        nbrs = build_parent_segment(Segment(layer, seg_lo, seg_hi), ranks,
                                    vecs, child_nbrs, m, ef,
                                    rows=range(row_lo, row_hi))
    return pack_neighbors([nb - 1 for nb in nbrs], m)


def _build(vectors: np.ndarray, tree: SegmentTree, m: int, parallelism: int,
           run_layer) -> IRangeGraphIndex:
    """Bottom-up over the layers; ``run_layer(layer, tasks, child)``
    returns one block per task, in task order."""
    n = len(vectors)
    child = empty_adjacency(n, m)
    layer_adj = [empty_adjacency(n, m) for _ in range(tree.num_layers)]
    for layer in range(tree.num_layers - 1, -1, -1):
        tasks = _layer_tasks(tree, layer, parallelism)
        blocks = run_layer(layer, tasks, child)
        for (seg_lo, _, row_lo, row_hi), block in zip(tasks, blocks):
            rows = slice(seg_lo - 1 + row_lo, seg_lo - 1 + row_hi)
            layer_adj[layer][rows] = child[rows] = block
    return IRangeGraphIndex(vectors=vectors, tree=tree, layer_adj=layer_adj, m=m)


# ------------------------------------------------------------ driver build
def build_irange_index_local(
    vectors: np.ndarray,
    *,
    m: int = DEFAULT_M,
    ef: int = DEFAULT_EF,
    leaf_size: int = DEFAULT_LEAF,
) -> IRangeGraphIndex:
    """Driver-only bottom-up build: the layer's tasks in a plain loop."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    tree = SegmentTree(len(vectors), leaf_size)

    def run_layer(layer, tasks, child):
        return [_build_task(t, layer, vectors, child, leaf_size, m, ef)
                for t in tasks]

    return _build(vectors, tree, m, 1, run_layer)


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

    ``vectors_df`` has columns ``rank`` (1-based long, dense 1..n) and
    ``vector`` (array<float>). One Spark job per tree layer: each task
    row builds its rows inside ``mapInPandas``.
    """
    pdf_all = vectors_df.select("rank", "vector").orderBy("rank").toPandas()
    n = len(pdf_all)
    if not np.array_equal(pdf_all["rank"].to_numpy(), np.arange(1, n + 1)):
        raise ValueError("rank column must be dense 1..n")
    vectors = np.ascontiguousarray(
        np.stack(pdf_all["vector"].to_numpy()), dtype=np.float32
    )
    tree = SegmentTree(n, leaf_size)

    def run_layer(layer, tasks, child):
        def build(frames):
            for pdf in frames:
                yield pdf[["task"]].assign(block=[
                    _build_task(t[1:], layer, vectors, child, leaf_size, m,
                                ef).tobytes()
                    for t in pdf.itertuples(index=False)
                ])

        task_df = spark.createDataFrame(
            [(i, *t) for i, t in enumerate(tasks)],
            "task long, seg_lo long, seg_hi long, row_lo long, row_hi long",
        )
        out = task_df.mapInPandas(build, "task long, block binary").toPandas()
        return [np.frombuffer(b, dtype=np.int32).reshape(-1, m)
                for b in out.sort_values("task")["block"]]

    return _build(vectors, tree, m, spark.sparkContext.defaultParallelism,
                  run_layer)
