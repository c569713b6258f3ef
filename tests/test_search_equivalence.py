"""The optimized query path must match the plain reference bit for bit.

``tests/_reference_search.py`` holds the original Segment-walking
Algorithm 1 and the per-neighbour ``int(v)`` beam loop. Edge selection,
returned ids and distance counts of the optimized code are compared
against it, and so is the adjacency of a build that runs the reference
beam loop per query in place of the lockstep case-2 kernel.
"""
import numpy as np
import pytest

from repro.core import irange_build
from repro.core.irange_build import build_irange_index_local
from repro.core.multi_attr import MultiAttrIndex
from repro.core.neighbors import DistanceCounter
from tests import _reference_search as ref
from tests.conftest import make_clustered


@pytest.fixture(scope="module")
def deep_index():
    """n=150 with leaf 8: six layers and uneven splits."""
    X, _ = make_clustered(150, 16, seed=5)
    return build_irange_index_local(X, m=8, ef=30, leaf_size=8)


@pytest.fixture(scope="module")
def one_layer_index():
    """n <= leaf_size: the tree is a single leaf."""
    X, _ = make_clustered(40, 16, seed=6)
    return build_irange_index_local(X, m=8, ef=30, leaf_size=64)


def _ranges(n, count, seed):
    g = np.random.default_rng(seed)
    out = [(1, n), (1, 1), (n, n), (1, n // 2), (n // 2 + 1, n)]
    while len(out) < count:
        lo = int(g.integers(1, n + 1))
        hi = int(g.integers(lo, n + 1))
        out.append((lo, hi))
    return out


def _counted(search, *args, **kw):
    c = DistanceCounter()
    res = search(*args, counter=c, **kw)
    return res, c.count


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("which", ["irange_index", "deep_index",
                                   "one_layer_index"])
def test_select_edges_matches_reference(request, which, skip):
    idx = request.getfixturevalue(which)
    assert idx.select_edges(0, 1, idx.n).dtype == np.int64
    for lo, hi in _ranges(idx.n, 200, seed=11):
        got = [idx.select_edges(u, lo, hi, skip_layers=skip).tolist()
               for u in range(idx.n)]
        want = [ref.select_edges(idx, u, lo, hi, skip_layers=skip).tolist()
                for u in range(idx.n)]
        assert got == want, (lo, hi)


@pytest.mark.parametrize("skip", [True, False])
def test_search_matches_reference(irange_index, small_data, skip):
    _, Q = small_data
    reference = ref.ReferenceIndex(irange_index)
    for i, (lo, hi) in enumerate(_ranges(irange_index.n, 96, seed=12)):
        q = Q[i % len(Q)]
        for beam in (10, 20, 40, 80):
            got = _counted(irange_index.search, q, lo, hi, beam=beam, k=10,
                           skip_layers=skip)
            want = _counted(reference.search, q, lo, hi, beam=beam, k=10,
                            skip_layers=skip)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1]


@pytest.mark.parametrize("mode", ["post", "prob"])
def test_multi_attr_search_matches_reference(irange_index, small_data, mode):
    _, Q = small_data
    n = irange_index.n
    a2 = np.random.default_rng(42).permutation(n) + 1
    fast = MultiAttrIndex(irange_index, a2)
    slow = MultiAttrIndex(ref.ReferenceIndex(irange_index), a2)
    g = np.random.default_rng(13)
    for i in range(12):
        r1 = (int(g.integers(1, n // 2)), int(g.integers(n // 2, n + 1)))
        r2 = (int(g.integers(1, n // 2)), int(g.integers(n // 2, n + 1)))
        for beam in (20, 60):
            kw = dict(beam=beam, k=10, mode=mode, seed=i)
            got = _counted(fast.search, Q[i], r1, r2, **kw)
            want = _counted(slow.search, Q[i], r1, r2, **kw)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1]


@pytest.mark.parametrize("lo,hi,beam,k", [
    (50, 40, 10, 10),     # lo > hi: empty
    (100, 104, 10, 10),   # range shorter than k
    (30, 69, 40, 10),     # beam == range length: slice scan
    (30, 69, 80, 10),     # beam > range length: slice scan
    (-5, 90, 20, 10),     # clamped at 1
    (170, 999, 20, 10),   # clamped at n
    (0, 10**6, 20, 10),   # clamped at both ends
    (1, 256, 10, 10),     # whole range
])
def test_edge_case_searches_match_reference(irange_index, small_data,
                                            lo, hi, beam, k):
    _, Q = small_data
    reference = ref.ReferenceIndex(irange_index)
    for q in Q[:4]:
        got = _counted(irange_index.search, q, lo, hi, beam=beam, k=k)
        want = _counted(reference.search, q, lo, hi, beam=beam, k=k)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
    if lo > hi:
        assert len(got[0]) == 0 and got[1] == 0


def test_one_layer_tree_search_matches_reference(one_layer_index):
    idx = one_layer_index
    assert idx.tree.num_layers == 1
    _, Q = make_clustered(40, 16, seed=6)
    reference = ref.ReferenceIndex(idx)
    for q in Q[:6]:
        for lo, hi in ((1, 40), (3, 37), (10, 30)):
            got = _counted(idx.search, q, lo, hi, beam=8, k=5)
            want = _counted(reference.search, q, lo, hi, beam=8, k=5)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1]


def test_single_leaf_ranges_are_duplicate_free(deep_index):
    idx = deep_index
    leaves = [s for layer in idx.tree.layers for s in layer
              if idx.tree.is_leaf(s)]
    for leaf in leaves:
        for lo, hi in ((leaf.lo, leaf.hi), (leaf.lo, leaf.lo + 1)):
            for u in range(lo - 1, hi):
                got = idx.select_edges(u, lo, hi)
                np.testing.assert_array_equal(
                    got, ref.select_edges(idx, u, lo, hi))
                assert len(np.unique(got)) == len(got)
                assert u not in got.tolist()


def test_build_matches_reference_beam_loop(small_data, irange_index,
                                           monkeypatch):
    X, _ = small_data
    monkeypatch.setattr(irange_build, "beam_search_many",
                        ref.beam_search_many)
    want = build_irange_index_local(X, m=8, ef=50, leaf_size=32)
    assert len(irange_index.layer_adj) == len(want.layer_adj)
    for got_adj, want_adj in zip(irange_index.layer_adj, want.layer_adj):
        assert got_adj.dtype == want_adj.dtype
        np.testing.assert_array_equal(got_adj, want_adj)
