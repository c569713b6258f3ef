"""Materializing the elemental graphs (paper Section 3.2), bottom-up.

One builder, two executors. A segment's elemental graph needs only its
two children's graphs, so a segment's whole subtree is independent work.
The builder picks the *split layer*, the shallowest layer with at least
``P`` segments (or the deepest layer if none has that many), and builds
in two kinds of task:

- a **subtree task** ``(layer, seg_lo, seg_hi)``, one per segment of the
  split layer and one per leaf above it, builds that segment's whole
  subtree bottom-up and returns one ``(depth, rows, m)`` int32 block,
  one slab per layer;
- above the split, each layer is a list of **row chunks** ``(seg_lo,
  seg_hi, row_lo, row_hi)`` of its parent segments, ``ceil(P / parent
  segments)`` per segment, each reading the next-deeper layer's
  adjacency and returning a ``(rows, m)`` int32 block.

A leaf is exact approximate-RNG over its points. A parent row ``u`` needs
only its children's graphs:

- **case 1** (candidates from the child containing ``u``): copy ``u``'s
  edges in the child elemental graph — anything else in that child is
  already RNG-pruned there, hence would be pruned in the parent too;
- **case 2** (candidates from the other child): beam-search the other
  child's elemental graph for ``EF`` approximate nearest neighbors;

then RNG-prune the union to at most ``m`` out-edges. The rows of one
child are independent, so each side of a segment runs both steps as
lockstep array programs that return per row exactly what the
single-node kernels return:

- :func:`~repro.core.beam_search.beam_search_many` runs the side's
  case-2 searches over the other child's padded adjacency, in that
  child's own 0-based ids;
- :func:`~repro.core.rng_prune.rng_prune_many` prunes the side's rows,
  each row's case-1 edges ahead of its case-2 hits.

* :func:`build_irange_index_local` is the builder at ``P = 1``: the split
  layer is the root, so it runs the root's subtree task on the driver.
  perfbench's ``mixed`` and ``multiattr`` workloads, Table 3's
  driver-local column and the tests time this build.
* :func:`build_irange_index` runs ``P = defaultParallelism``: one Spark
  job for all subtree tasks, then one per layer above the split (root
  last), each run by :func:`~repro.core.tasks.run_tasks` with the
  vectors and the next-deeper adjacency in the function's closure, so no
  row is joined or shuffled.

Both executors run the same deterministic kernels on the same rows, so
they produce identical indexes — unit tests assert this.
"""
from __future__ import annotations

from functools import partial

import numpy as np

# perfbench looks up beam_search, rng_prune and brute_force_rng here by name.
from repro.core.beam_search import beam_search, beam_search_many  # noqa: F401
from repro.core.irange_graph import IRangeGraphIndex
from repro.core.neighbors import NO_EDGE, empty_adjacency, pack_neighbors
from repro.core.rng_prune import (brute_force_rng, rng_prune,  # noqa: F401
                                  rng_prune_many)
from repro.core.segment_tree import Segment, SegmentTree
from repro.core.tasks import run_tasks

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
    vecs: np.ndarray,
    below: np.ndarray,
    m: int,
    ef: int,
    rows: range | None = None,
) -> list[np.ndarray]:
    """Build one parent segment's elemental graph from its two children.

    ``vecs`` and ``below`` hold the segment's rows: vectors and the
    next-deeper layer's adjacency (0-based global ids, ``NO_EDGE``
    padded), in which each child's edges stay inside that child. Returns
    the out-neighbors (global ranks) of the local ``rows`` (default: all).
    """
    rows = range(len(seg)) if rows is None else rows
    half = (seg.lo + seg.hi) // 2 - seg.lo + 1  # rows of the left child
    # Segment-local ids, NO_EDGE padded.
    local = np.where(below >= 0, below.astype(np.int64) - (seg.lo - 1), NO_EDGE)
    out: list[np.ndarray] = []
    for queries, lo, hi in (
        (range(rows.start, min(rows.stop, half)), half, len(seg)),
        (range(max(rows.start, half), rows.stop), 0, half),
    ):
        if not queries:
            continue
        # case 2: approximate NNs of each row searched in the other child
        # graph [lo, hi), in its own 0-based ids, entered at its mid node.
        graph = np.where(local[lo:hi] >= 0, local[lo:hi] - lo, NO_EDGE)
        q = slice(queries.start, queries.stop)
        found = beam_search_many(vecs[q], vecs[lo:hi], graph, (hi - lo) // 2,
                                 beam=ef)
        found[found >= 0] += lo
        # case 1: u's edges in its own child graph survive as candidates,
        # ahead of the case-2 hits; a side's rows are pruned as one block.
        kept = rng_prune_many(vecs[q], np.hstack([local[q], found]), vecs, m)
        out += [row[row >= 0] + seg.lo for row in kept]
    return out


# ------------------------------------------------------------------ builder
def _split_layer(tree: SegmentTree, parallelism: int) -> int:
    """The shallowest layer with at least ``parallelism`` segments, or the
    deepest layer if none has that many."""
    return next((layer for layer in range(tree.num_layers)
                 if len(tree.segments_at(layer)) >= parallelism),
                tree.num_layers - 1)


def _subtree_tasks(tree: SegmentTree, split: int) -> list[tuple[int, int, int]]:
    """The subtree tasks ``(layer, seg_lo, seg_hi)``: every segment of the
    split layer and every leaf above it."""
    return [(s.layer, s.lo, s.hi) for layer in range(split + 1)
            for s in tree.segments_at(layer)
            if layer == split or tree.is_leaf(s)]


def _layer_tasks(tree: SegmentTree, layer: int,
                 parallelism: int) -> list[tuple[int, int, int, int]]:
    """The tasks ``(seg_lo, seg_hi, row_lo, row_hi)`` of a layer above the
    split, rows local and half-open: each parent segment split into
    ``ceil(parallelism / parent segments)`` contiguous row chunks (its
    leaves are subtree tasks)."""
    parents = [s for s in tree.segments_at(layer) if not tree.is_leaf(s)]
    chunks = -(-parallelism // len(parents))
    tasks = []
    for s in parents:
        k = min(chunks, len(s))
        bounds = [len(s) * j // k for j in range(k + 1)]
        tasks += [(s.lo, s.hi, a, b) for a, b in zip(bounds, bounds[1:])]
    return tasks


def _build_rows(seg: Segment, rows: range, vectors: np.ndarray,
                below: np.ndarray | None, leaf_size: int, m: int,
                ef: int) -> np.ndarray:
    """Local ``rows`` of ``seg`` as a packed ``(len(rows), m)`` int32 block.

    A leaf is built whole; a parent reads ``below``, its own rows of the
    next-deeper layer's adjacency (0-based ids), where its two children
    cover every row.
    """
    vecs = vectors[seg.lo - 1:seg.hi]
    if len(seg) <= leaf_size:
        nbrs = build_leaf_segment(
            np.arange(seg.lo, seg.hi + 1, dtype=np.int64), vecs, m)
    else:
        nbrs = build_parent_segment(seg, vecs, below, m, ef, rows=rows)
    return pack_neighbors([nb - 1 for nb in nbrs], m)


def _build_subtree(layer: int, seg_lo: int, seg_hi: int, *, tree: SegmentTree,
                   vectors: np.ndarray, m: int, ef: int) -> np.ndarray:
    """One segment's whole subtree, bottom-up, as a ``(depth, seg_hi -
    seg_lo + 1, m)`` int32 block: one slab per layer from ``layer`` down,
    in which the rows of nodes whose leaf sits higher are padding."""
    levels = [lv for lv in ([s for s in tree.segments_at(lay)
                             if seg_lo <= s.lo and s.hi <= seg_hi]
                            for lay in range(layer, tree.num_layers)) if lv]
    block = np.full((len(levels), seg_hi - seg_lo + 1, m), NO_EDGE,
                    dtype=np.int32)
    for depth in range(len(levels) - 1, -1, -1):
        for s in levels[depth]:
            rows = slice(s.lo - seg_lo, s.hi - seg_lo + 1)
            below = block[depth + 1, rows] if depth + 1 < len(levels) else None
            block[depth, rows] = _build_rows(s, range(len(s)), vectors, below,
                                             tree.leaf_size, m, ef)
    return block


def _build_chunk(seg_lo: int, seg_hi: int, row_lo: int, row_hi: int, *,
                 layer: int, below: np.ndarray, vectors: np.ndarray,
                 leaf_size: int, m: int, ef: int) -> np.ndarray:
    """One row chunk of a parent segment; ``below`` is the next-deeper
    layer's ``(n, m)`` adjacency."""
    return _build_rows(Segment(layer, seg_lo, seg_hi), range(row_lo, row_hi),
                       vectors, below[seg_lo - 1:seg_hi], leaf_size, m, ef)


def _build(vectors: np.ndarray, tree: SegmentTree, m: int, ef: int,
           parallelism: int, run) -> IRangeGraphIndex:
    """Subtree tasks first, then the layers above the split, root last.

    ``run(fn, tasks, sizes)`` is :func:`~repro.core.tasks.run_tasks` with
    its executor bound; a task's size is its number of rows.
    """
    n = len(vectors)
    layer_adj = [empty_adjacency(n, m) for _ in range(tree.num_layers)]
    split = _split_layer(tree, parallelism)
    tasks = _subtree_tasks(tree, split)
    fn = partial(_build_subtree, tree=tree, vectors=vectors, m=m, ef=ef)
    sizes = [hi - lo + 1 for _, lo, hi in tasks]
    for (layer, lo, hi), block in zip(tasks, run(fn, tasks, sizes)):
        for depth, slab in enumerate(block.reshape(-1, hi - lo + 1, m)):
            layer_adj[layer + depth][lo - 1:hi] = slab
    for layer in range(split - 1, -1, -1):
        tasks = _layer_tasks(tree, layer, parallelism)
        fn = partial(_build_chunk, layer=layer, below=layer_adj[layer + 1],
                     vectors=vectors, leaf_size=tree.leaf_size, m=m, ef=ef)
        sizes = [b - a for _, _, a, b in tasks]
        for (lo, _, a, b), block in zip(tasks, run(fn, tasks, sizes)):
            layer_adj[layer][lo - 1 + a:lo - 1 + b] = block.reshape(-1, m)
    return IRangeGraphIndex(vectors=vectors, tree=tree, layer_adj=layer_adj, m=m)


# ------------------------------------------------------------ driver build
def build_irange_index_local(
    vectors: np.ndarray,
    *,
    m: int = DEFAULT_M,
    ef: int = DEFAULT_EF,
    leaf_size: int = DEFAULT_LEAF,
) -> IRangeGraphIndex:
    """Driver-only bottom-up build: one subtree task, the root's."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    tree = SegmentTree(len(vectors), leaf_size)
    return _build(vectors, tree, m, ef, 1, partial(run_tasks, None))


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
    ``vector`` (array<float>). One Spark job builds every subtree of the
    split layer (the shallowest with ``defaultParallelism`` segments), and
    one job per layer above it builds that layer's row chunks.
    """
    pdf = vectors_df.select("rank", "vector").toPandas()
    ranks = pdf["rank"].to_numpy()
    order = np.argsort(ranks, kind="stable")
    if not np.array_equal(ranks[order], np.arange(1, len(ranks) + 1)):
        raise ValueError("rank column must be dense 1..n")
    vectors = np.ascontiguousarray(
        np.stack(pdf["vector"].to_numpy()[order]), dtype=np.float32
    )
    tree = SegmentTree(len(vectors), leaf_size)
    return _build(vectors, tree, m, ef, spark.sparkContext.defaultParallelism,
                  partial(run_tasks, spark))
