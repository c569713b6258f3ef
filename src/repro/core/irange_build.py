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

then RNG-prune the union to at most ``m`` out-edges.

* :func:`build_irange_index_local` is the builder at ``P = 1``: the split
  layer is the root, so it runs the root's subtree task on the driver.
  perfbench's ``mixed`` and ``multiattr`` workloads, Table 3's
  driver-local column and the tests time this build.
* :func:`build_irange_index` runs ``P = defaultParallelism``: one Spark
  job for all subtree tasks, then one per layer above the split (root
  last), each a ``mapInPandas`` over a DataFrame of the tasks, with the
  vectors and the next-deeper adjacency in the function's closure, so no
  row is joined or shuffled; each task's block comes back as bytes.

Both executors run the same deterministic kernels on the same rows, so
they produce identical indexes — unit tests assert this.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.beam_search import beam_search
from repro.core.irange_graph import IRangeGraphIndex
from repro.core.neighbors import NO_EDGE, empty_adjacency, pack_neighbors
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
    ranks = np.arange(seg.lo, seg.hi + 1, dtype=np.int64)
    vecs = vectors[seg.lo - 1:seg.hi]
    if len(seg) <= leaf_size:
        nbrs = build_leaf_segment(ranks, vecs, m)
    else:
        # Rows are packed from the left, so each row's edges are a prefix.
        adj = below.astype(np.int64) + 1
        child_nbrs = [row[:k] for row, k in
                      zip(adj, (adj > 0).sum(axis=1).tolist())]
        nbrs = build_parent_segment(seg, ranks, vecs, child_nbrs, m, ef,
                                    rows=rows)
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

    ``run(fn, tasks)`` returns ``[fn(*task) for task in tasks]``, in task
    order, as int32 arrays of any shape.
    """
    n = len(vectors)
    layer_adj = [empty_adjacency(n, m) for _ in range(tree.num_layers)]
    split = _split_layer(tree, parallelism)
    tasks = _subtree_tasks(tree, split)
    fn = partial(_build_subtree, tree=tree, vectors=vectors, m=m, ef=ef)
    for (layer, lo, hi), block in zip(tasks, run(fn, tasks)):
        for depth, slab in enumerate(block.reshape(-1, hi - lo + 1, m)):
            layer_adj[layer + depth][lo - 1:hi] = slab
    for layer in range(split - 1, -1, -1):
        tasks = _layer_tasks(tree, layer, parallelism)
        fn = partial(_build_chunk, layer=layer, below=layer_adj[layer + 1],
                     vectors=vectors, leaf_size=tree.leaf_size, m=m, ef=ef)
        for (lo, _, a, b), block in zip(tasks, run(fn, tasks)):
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
    return _build(vectors, tree, m, ef, 1,
                  lambda fn, tasks: [fn(*t) for t in tasks])


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
    one job per layer above it builds that layer's row chunks, each task
    inside ``mapInPandas``.
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

    def run(fn, tasks):
        def build(frames):
            for pdf in frames:
                yield pdf[["task"]].assign(block=[
                    fn(*args.tolist()).tobytes() for args in pdf["args"]
                ])

        task_df = spark.createDataFrame(
            [(i, list(t)) for i, t in enumerate(tasks)],
            "task long, args array<long>",
        )
        out = task_df.mapInPandas(build, "task long, block binary").toPandas()
        return [np.frombuffer(b, dtype=np.int32)
                for b in out.sort_values("task")["block"]]

    return _build(vectors, tree, m, ef, spark.sparkContext.defaultParallelism,
                  run)
