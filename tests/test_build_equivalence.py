"""The optimized build kernels must match the plain reference bit for bit.

``tests/_reference_build.py`` holds the original per-candidate RNG prune,
the per-pair brute-force leaf builder and the parent-segment builder
that maps child rows to local ids on every expansion. Their output is
compared against ``repro.core`` directly, through the iRangeGraph build
(whose original dict-merging layer loop the reference keeps too, and
whose case-2 searches run the single-query beam search per node),
through HNSW-lite (with its edge history) and through FilteredVamana,
whose original loop the reference keeps as well.
"""
import numpy as np
import pytest

from repro.baselines.filtered_diskann import FilteredVamanaIndex
from repro.core import hnsw, irange_build
from repro.core import rng_prune as rp
from repro.core.irange_build import build_irange_index_local
from repro.core.neighbors import NO_EDGE, pack_neighbors
from repro.core.segment_tree import SegmentTree
from tests import _reference_build as ref
from tests.conftest import make_clustered

# Input scales: each comparison also runs on its inputs times 0.9 and 1.2,
# whose distances have other float bits and other near-ties.
SCALES = [0.9, 1.0, 1.2]
DTYPES = [np.float32, np.float64]


def _candidates(g, dtype):
    """A random candidate set with duplicate ids, repeated vectors and,
    sometimes, candidates at ``u`` itself (zero distances)."""
    count = int(g.integers(1, 80))
    d = int(g.integers(2, 9))
    ids = g.integers(0, max(2, count // 2 + 1), count)
    vecs = g.normal(size=(count, d))
    dup = g.random(count) < 0.2
    vecs[dup] = vecs[g.integers(0, count, int(dup.sum()))]
    u = g.normal(size=d)
    if g.random() < 0.3:
        vecs[g.integers(0, count)] = u
    m = int(g.integers(0, count + 6))  # includes m >= candidate count
    return u.astype(dtype), ids, vecs.astype(dtype), m


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("scale", SCALES)
def test_rng_prune_matches_reference(scale, dtype):
    g = np.random.default_rng(int(scale * 10) + 100 * (dtype is np.float32))
    for _ in range(300):
        u, ids, vecs, m = _candidates(g, dtype)
        u, vecs = u * dtype(scale), vecs * dtype(scale)
        got = rp.rng_prune(u, ids, vecs, m)
        want = ref.rng_prune(u, ids, vecs, m)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_rng_prune_empty_and_identical_candidates():
    u = np.zeros(3, dtype=np.float32)
    empty = rp.rng_prune(u, np.empty(0, int), np.empty((0, 3)), 4)
    assert empty.dtype == np.int64 and len(empty) == 0
    same = np.ones((5, 3), dtype=np.float32)
    for m in range(7):
        np.testing.assert_array_equal(
            rp.rng_prune(u, np.arange(5), same, m),
            ref.rng_prune(u, np.arange(5), same, m))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 33, 63, 64])
def test_brute_force_rng_matches_reference(n, scale, dtype):
    """Leaves of up to 64 points with a duplicate vector, and the same
    number of equal points, at degree caps below, at and above n. Each
    row of the padded block is the reference's list, then padding."""
    g = np.random.default_rng(n)
    vecs = g.normal(size=(n, 6)) * scale
    vecs[n // 2] = vecs[0]  # a duplicate vector
    for vecs in (vecs.astype(dtype), np.ones((n, 6), dtype=dtype)):
        for m in (1, 4, n, n + 1):
            got = rp.brute_force_rng(vecs, m)
            want = ref.brute_force_rng(vecs, m)
            assert got.shape == (n, m) and got.dtype == np.int64
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a[:len(b)], b)
                assert np.all(a[len(b):] == NO_EDGE)


def _ref_leaf_block(vecs, m):
    """The reference leaf walk as the padded block the builder reads."""
    return pack_neighbors(ref.brute_force_rng(vecs, m), m)


def _ref_parent_block(seg, vecs, below, m, ef, rows=None):
    """The reference parent rows (global ranks) as the builder's padded
    block of 0-based ids."""
    nbrs = ref.build_parent_segment(seg, vecs, below, m, ef, rows)
    return pack_neighbors([nb - 1 for nb in nbrs], m)


def _reference_irange_build(monkeypatch, X, **kw):
    """The build on the reference kernels, patched through the module
    globals; it must also equal the reference layer loop."""
    with monkeypatch.context() as mp:
        mp.setattr(irange_build, "rng_prune", ref.rng_prune)
        mp.setattr(irange_build, "brute_force_rng", _ref_leaf_block)
        mp.setattr(irange_build, "build_parent_segment", _ref_parent_block)
        want = build_irange_index_local(X, **kw)
    _assert_same_layers(want.layer_adj, ref.irange_layers(X, **kw))
    return want


def _assert_same_layers(got, want):
    assert len(got) == len(want)
    for g_adj, w_adj in zip(got, want):
        assert g_adj.dtype == w_adj.dtype
        np.testing.assert_array_equal(g_adj, w_adj)


def test_irange_build_matches_reference(small_data, irange_index,
                                        monkeypatch):
    """n=256, leaf 32: a four-layer tree."""
    X, _ = small_data
    assert irange_index.tree.num_layers == 4
    want = _reference_irange_build(monkeypatch, X, m=8, ef=50, leaf_size=32)
    _assert_same_layers(irange_index.layer_adj, want.layer_adj)


def test_uneven_irange_build_matches_reference(monkeypatch):
    """n=134, leaf 16: leaves sit on two different layers. A beam of 4
    keeps the case-2 searches far from exhaustive, so they depend on the
    entry node and the order of every child row."""
    X, _ = make_clustered(134, 16, seed=8)
    tree = SegmentTree(134, 16)
    leaf_layers = {s.layer for lay in tree.layers for s in lay
                   if tree.is_leaf(s)}
    assert len(leaf_layers) == 2
    got = build_irange_index_local(X, m=6, ef=4, leaf_size=16)
    want = _reference_irange_build(monkeypatch, X, m=6, ef=4, leaf_size=16)
    _assert_same_layers(got.layer_adj, want.layer_adj)


def test_duplicates_across_children_build_matches_reference(monkeypatch):
    """n=200, leaf 25, built from 23 distinct vectors repeated in rank
    order: every segment's two children hold copies of each other's rows
    (and of their own). Case-2 searches then meet exact distance ties,
    and with EF=6 the ties fall at the admission threshold and decide
    the expansion order."""
    X, _ = make_clustered(200, 16, seed=11)
    X = X[np.arange(200) % 23]
    assert SegmentTree(200, 25).num_layers == 4
    got = build_irange_index_local(X, m=6, ef=6, leaf_size=25)
    want = _reference_irange_build(monkeypatch, X, m=6, ef=6, leaf_size=25)
    _assert_same_layers(got.layer_adj, want.layer_adj)


def test_build_runs_no_per_node_search(monkeypatch):
    """The case-2 searches run only in the lockstep kernel: a build whose
    single-query search raises still succeeds, with the same layers."""
    X, _ = make_clustered(134, 16, seed=8)
    want = build_irange_index_local(X, m=6, ef=4, leaf_size=16)

    def per_node(*args, **kwargs):
        raise AssertionError("per-node case-2 search")

    monkeypatch.setattr(irange_build, "beam_search", per_node)
    got = build_irange_index_local(X, m=6, ef=4, leaf_size=16)
    _assert_same_layers(got.layer_adj, want.layer_adj)


def test_build_runs_no_per_node_prune(monkeypatch):
    """The parent rows are pruned only in the lockstep kernel: a build
    whose single-node prune raises still equals the reference."""
    X, _ = make_clustered(134, 16, seed=8)
    want = _reference_irange_build(monkeypatch, X, m=6, ef=4, leaf_size=16)

    def per_node(*args, **kwargs):
        raise AssertionError("per-node RNG prune")

    monkeypatch.setattr(irange_build, "rng_prune", per_node)
    got = build_irange_index_local(X, m=6, ef=4, leaf_size=16)
    _assert_same_layers(got.layer_adj, want.layer_adj)


@pytest.mark.parametrize("n", [1, 2, 6, 7, 16, 17])
def test_small_builds_match_reference(n):
    """n at and around the degree cap m = 6 and the leaf size 16: a lone
    leaf of one or two points, leaves whose nodes have fewer candidates
    than m, and (n = 17) one parent over two leaves."""
    X, _ = make_clustered(n, 16, seed=n)
    got = build_irange_index_local(X, m=6, ef=8, leaf_size=16)
    _assert_same_layers(got.layer_adj, ref.irange_layers(X, m=6, ef=8,
                                                         leaf_size=16))


def test_hnsw_with_history_matches_reference(monkeypatch):
    X, _ = make_clustered(300, 16, seed=9)
    got = hnsw.build_hnsw(X, m=6, ef_construction=30, record_history=True)
    monkeypatch.setattr(hnsw, "rng_prune", ref.rng_prune)
    want = hnsw.build_hnsw(X, m=6, ef_construction=30, record_history=True)
    assert got.entry == want.entry
    for name in ("adj", "edge_src", "edge_dst", "edge_birth", "edge_death"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_filtered_vamana_matches_reference(monkeypatch):
    """One ``build_hnsw`` per label, in the label's share of the seeded
    order, rebuilds the original whole-dataset FilteredVamana loop
    exactly: adjacency and per-label first nodes. Dataset 3 adds
    duplicated vectors, inside one label and across two."""
    for i in range(4):
        X, _ = make_clustered(300, 16, seed=10 + i)
        if i == 3:
            X[7] = X[8]
            X[150] = X[20]
        got = FilteredVamanaIndex(X, n_labels=5, m=6, ef=30)
        want_adj, want_medoids = ref.filtered_vamana(X, got.label, 6, 30, 0)
        with monkeypatch.context() as mp:
            mp.setattr(hnsw, "rng_prune", ref.rng_prune)
            patched = FilteredVamanaIndex(X, n_labels=5, m=6, ef=30)
        for idx in (got, patched):
            assert idx.adj.dtype == want_adj.dtype
            np.testing.assert_array_equal(idx.adj, want_adj)
            assert idx.medoids == want_medoids
