"""Tests for materializing the elemental graphs (paper Section 3.2)."""
import numpy as np
import pytest

from repro.core.irange_build import (_layer_tasks, build_irange_index_local,
                                     build_leaf_segment,
                                     build_parent_segment)
from repro.core.rng_prune import brute_force_rng
from repro.core.segment_tree import Segment, SegmentTree
from tests.conftest import make_clustered


def test_leaf_segment_equals_brute_force_rng():
    X, _ = make_clustered(32, 8, seed=2)
    ranks = np.arange(101, 133, dtype=np.int64)
    got = build_leaf_segment(ranks, X, m=4)
    ref = brute_force_rng(X, 4)
    for g, r in zip(got, ref):
        np.testing.assert_array_equal(g, ranks[r])


def test_parent_segment_edges_stay_in_segment():
    X, _ = make_clustered(64, 8, seed=3)
    seg = Segment(0, 1, 64)
    ranks = np.arange(1, 65, dtype=np.int64)
    child = build_leaf_segment(ranks[:32], X[:32], 4) + build_leaf_segment(
        ranks[32:], X[32:], 4
    )
    nbrs = build_parent_segment(seg, ranks, X, child, m=4, ef=30)
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
    ranks = np.arange(1, 65, dtype=np.int64)
    child = build_leaf_segment(ranks[:32], X[:32], 4) + build_leaf_segment(
        ranks[32:], X[32:], 4
    )
    nbrs = build_parent_segment(seg, ranks, X, child, m=4, ef=30)
    crossing = sum(
        1
        for u, nb in enumerate(nbrs)
        if any((v > 32) != (u + 1 > 32) for v in nb)
    )
    assert crossing > 0


def test_parent_segment_built_in_row_chunks_equals_whole():
    X, _ = make_clustered(64, 8, seed=4)
    seg = Segment(0, 1, 64)
    ranks = np.arange(1, 65, dtype=np.int64)
    child = build_leaf_segment(ranks[:32], X[:32], 4) + build_leaf_segment(
        ranks[32:], X[32:], 4
    )
    whole = build_parent_segment(seg, ranks, X, child, m=4, ef=8)
    split = [
        nb for rows in (range(0, 27), range(27, 64))
        for nb in build_parent_segment(seg, ranks, X, child, m=4, ef=8,
                                       rows=rows)
    ]
    assert len(split) == len(whole) == 64
    for a, b in zip(split, whole):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("parallelism", [1, 2, 3, 4])
@pytest.mark.parametrize("n, leaf", [(134, 16), (256, 32), (20, 32), (7, 2)])
def test_layer_tasks_cover_each_segment_once(n, leaf, parallelism):
    """Every layer's tasks cover its segments' rows exactly once, stay
    inside one segment, leave leaves whole and split each parent segment
    into ceil(P / segments) chunks (lengths like 134 do not divide by 3
    or 4)."""
    tree = SegmentTree(n, leaf)
    for layer in range(tree.num_layers):
        segs = tree.segments_at(layer)
        tasks = _layer_tasks(tree, layer, parallelism)
        by_seg = {(s.lo, s.hi): [] for s in segs}
        for seg_lo, seg_hi, row_lo, row_hi in tasks:
            assert 0 <= row_lo < row_hi <= seg_hi - seg_lo + 1
            by_seg[(seg_lo, seg_hi)].append((row_lo, row_hi))
        chunks = -(-parallelism // len(segs))
        for s in segs:
            rows = by_seg[(s.lo, s.hi)]
            covered = sorted(r for a, b in rows for r in range(a, b))
            assert covered == list(range(len(s)))
            assert len(rows) == (1 if tree.is_leaf(s) else min(chunks, len(s)))


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
