"""Tests for materializing the elemental graphs (paper Section 3.2)."""
from functools import partial

import numpy as np
import pytest

from repro.core.irange_build import (_build, _layer_tasks, _split_layer,
                                     _subtree_tasks, build_irange_index_local,
                                     build_leaf_segment,
                                     build_parent_segment)
from repro.core.neighbors import pack_neighbors
from repro.core.rng_prune import brute_force_rng
from repro.core.segment_tree import Segment, SegmentTree
from repro.core.tasks import run_tasks
from tests.conftest import make_clustered


def test_leaf_segment_equals_brute_force_rng():
    X, _ = make_clustered(32, 8, seed=2)
    ranks = np.arange(101, 133, dtype=np.int64)
    got = build_leaf_segment(ranks, X, m=4)
    ref = brute_force_rng(X, 4)
    for g, r in zip(got, ref):
        np.testing.assert_array_equal(g, ranks[r])


def _children_below(X):
    """The two 32-row leaf graphs of segment [1, 64] as its next-deeper
    adjacency rows (0-based global ids)."""
    ranks = np.arange(1, 65, dtype=np.int64)
    child = build_leaf_segment(ranks[:32], X[:32], 4) + build_leaf_segment(
        ranks[32:], X[32:], 4
    )
    return pack_neighbors([nb - 1 for nb in child], 4)


def test_parent_segment_edges_stay_in_segment():
    X, _ = make_clustered(64, 8, seed=3)
    seg = Segment(0, 1, 64)
    below = _children_below(X)
    nbrs = build_parent_segment(seg, X, below, m=4, ef=30)
    for u, nb in enumerate(nbrs):
        assert 1 <= len(nb) <= 4
        assert all(1 <= v <= 64 for v in nb)
        assert (u + 1) not in nb.tolist()


def test_parent_reaches_across_children():
    """Cross-child candidates (case 2) must produce at least some edges
    that span the mid boundary — otherwise the parent graph would be two
    disconnected halves."""
    X, _ = make_clustered(64, 8, seed=4)
    seg = Segment(0, 1, 64)
    below = _children_below(X)
    nbrs = build_parent_segment(seg, X, below, m=4, ef=30)
    crossing = sum(
        1
        for u, nb in enumerate(nbrs)
        if any((v > 32) != (u + 1 > 32) for v in nb)
    )
    assert crossing > 0


def test_parent_segment_built_in_row_chunks_equals_whole():
    X, _ = make_clustered(64, 8, seed=4)
    seg = Segment(0, 1, 64)
    below = _children_below(X)
    whole = build_parent_segment(seg, X, below, m=4, ef=8)
    split = [
        nb for rows in (range(0, 27), range(27, 64))
        for nb in build_parent_segment(seg, X, below, m=4, ef=8,
                                       rows=rows)
    ]
    assert len(split) == len(whole) == 64
    for a, b in zip(split, whole):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("parallelism", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("n, leaf", [(134, 16), (256, 32), (20, 32), (7, 2)])
def test_layer_tasks_cover_each_segment_once(n, leaf, parallelism):
    """Subtree tasks plus the layer tasks above the split build every
    segment exactly once: a subtree task builds every segment inside it,
    a layer task one row chunk of a parent segment, chunks cover their
    segment's rows exactly once and number ceil(P / parent segments)
    (lengths like 134 do not divide by 3 or 4). n=134 with leaf 16 has
    leaves on layers 3 and 4, and at P=16 no layer has P segments, so the
    split is layer 4 and the layer-3 leaves are subtree tasks above it;
    n <= leaf is a single leaf."""
    tree = SegmentTree(n, leaf)
    split = _split_layer(tree, parallelism)
    assert all(len(tree.segments_at(layer)) < parallelism
               for layer in range(split))
    assert (len(tree.segments_at(split)) >= parallelism
            or split == tree.num_layers - 1)
    built = {(s.layer, s.lo, s.hi): [] for lay in tree.layers for s in lay}
    subtrees = _subtree_tasks(tree, split)
    for layer, lo, hi in subtrees:
        assert layer == split or tree.is_leaf(Segment(layer, lo, hi))
        for s in (s for lay in tree.layers[layer:] for s in lay
                  if lo <= s.lo and s.hi <= hi):
            built[(s.layer, s.lo, s.hi)].append((0, len(s)))
    for layer in range(split):
        parents = [s for s in tree.segments_at(layer) if not tree.is_leaf(s)]
        chunks = -(-parallelism // len(parents))
        tasks = _layer_tasks(tree, layer, parallelism)
        for seg_lo, seg_hi, row_lo, row_hi in tasks:
            assert 0 <= row_lo < row_hi <= seg_hi - seg_lo + 1
            built[(layer, seg_lo, seg_hi)].append((row_lo, row_hi))
        for s in parents:
            rows = built[(layer, s.lo, s.hi)]
            assert len(rows) == min(chunks, len(s))
    for (layer, lo, hi), rows in built.items():
        covered = sorted(r for a, b in rows for r in range(a, b))
        assert covered == list(range(hi - lo + 1)), (layer, lo, hi)
        if tree.is_leaf(Segment(layer, lo, hi)) or layer >= split:
            assert rows == [(0, hi - lo + 1)]


@pytest.mark.parametrize("parallelism", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("n, leaf, ef", [(134, 16, 4), (256, 32, 30)])
def test_builder_at_any_parallelism_equals_driver_build(n, leaf, ef,
                                                        parallelism):
    """The builder driven by a local executor at P > 1 (subtree tasks
    below the split, row chunks above it) gives the P = 1 adjacency."""
    X, _ = make_clustered(n, 16, seed=8)
    want = build_irange_index_local(X, m=6, ef=ef, leaf_size=leaf)
    got = _build(np.ascontiguousarray(X, dtype=np.float32),
                 SegmentTree(n, leaf), 6, ef, parallelism,
                 partial(run_tasks, None))
    assert len(got.layer_adj) == len(want.layer_adj)
    for a, b in zip(got.layer_adj, want.layer_adj):
        np.testing.assert_array_equal(a, b)


@pytest.fixture(scope="module")
def built():
    X, _ = make_clustered(256, 16, seed=5)
    return X, build_irange_index_local(X, m=8, ef=50, leaf_size=32)


def test_index_has_all_layers(built):
    X, idx = built
    assert len(idx.layer_adj) == idx.tree.num_layers == 4  # 256/32 = 8 leaves


def test_every_layer_edge_stays_in_its_segment(built):
    X, idx = built
    for layer, adj in enumerate(idx.layer_adj):
        for seg in idx.tree.segments_at(layer):
            for rank in range(seg.lo, seg.hi + 1):
                for v in adj[rank - 1]:
                    if v >= 0:
                        assert seg.lo <= v + 1 <= seg.hi


def test_degree_cap_everywhere(built):
    X, idx = built
    for adj in idx.layer_adj:
        assert adj.shape == (256, 8)


def test_every_node_present_in_every_layer(built):
    """n=256 with leaf 32 is a uniform tree: each node has out-edges in
    every layer's elemental graph."""
    X, idx = built
    for adj in idx.layer_adj:
        assert np.all((adj >= 0).any(axis=1))


def test_root_layer_is_a_whole_dataset_graph(built):
    """Layer-0 elemental graph must support plain (unfiltered) ANN."""
    X, idx = built
    _, Q = make_clustered(256, 16, seed=5)
    hits = 0
    for q in Q:
        res = idx.search(q, 1, 256, beam=60, k=10)
        ref = np.argsort(((X - q) ** 2).sum(axis=1))[:10] + 1
        hits += len(set(res.tolist()) & set(ref.tolist()))
    assert hits / (10 * len(Q)) >= 0.9


def test_build_deterministic():
    X, _ = make_clustered(128, 8, seed=6)
    a = build_irange_index_local(X, m=6, ef=40, leaf_size=16)
    b = build_irange_index_local(X, m=6, ef=40, leaf_size=16)
    for la, lb in zip(a.layer_adj, b.layer_adj):
        np.testing.assert_array_equal(la, lb)


def test_memory_accounting(built):
    X, idx = built
    mb = idx.memory_bytes()
    assert mb["vectors"] == X.nbytes
    assert mb["index"] == sum(a.nbytes for a in idx.layer_adj)


@pytest.mark.parametrize("n", [33, 100, 257])
def test_non_power_of_two_sizes(n):
    X, _ = make_clustered(n, 8, seed=n)
    idx = build_irange_index_local(X, m=4, ef=30, leaf_size=16)
    res = idx.search(X[0], 1, n, beam=40, k=5)
    assert len(res) == 5
    assert 1 in res.tolist()  # the query point itself is its own NN
