"""Tests for the RNG pruning rule (paper Definition 2.1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng_prune import brute_force_rng, rng_prune


def _prune(u, ids, vecs, m, **kw):
    return rng_prune(np.asarray(u, float), np.asarray(ids),
                     np.asarray(vecs, float), m, **kw)


def test_empty_candidates():
    out = rng_prune(np.zeros(2), np.empty(0, int), np.empty((0, 2)), 4)
    assert len(out) == 0


def test_single_candidate_always_kept():
    out = _prune([0, 0], [7], [[1.0, 0.0]], 4)
    np.testing.assert_array_equal(out, [7])


def test_collinear_point_is_pruned():
    # u at origin; c1 = (1,0) closer; c2 = (2,0) behind c1: d(c1,c2)=1 <
    # d(u,c2)=4 and d(u,c1)=1 < 4 => c2 pruned by c1 (the RNG rule).
    out = _prune([0, 0], [1, 2], [[1.0, 0.0], [2.0, 0.0]], 4)
    np.testing.assert_array_equal(out, [1])


def test_orthogonal_directions_both_kept():
    out = _prune([0, 0], [1, 2], [[1.0, 0.0], [0.0, 1.0]], 4)
    assert set(out.tolist()) == {1, 2}


def test_degree_cap_m():
    # Points on a circle: no pair prunes another if well separated.
    ang = np.linspace(0, 2 * np.pi, 9)[:-1]
    vecs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    out = _prune([0, 0], np.arange(8), vecs, 3)
    assert len(out) == 3


def test_result_sorted_by_distance():
    g = np.random.default_rng(0)
    vecs = g.normal(size=(20, 4))
    u = g.normal(size=4)
    out = _prune(u, np.arange(20), vecs, 20)
    d = ((vecs[out] - u) ** 2).sum(axis=1)
    assert np.all(np.diff(d) >= -1e-12)


def test_duplicate_ids_collapsed():
    out = _prune([0, 0], [5, 5, 6], [[1, 0], [1, 0], [0, 1]], 4)
    assert sorted(out.tolist()) == [5, 6]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 30), st.integers(1, 8), st.integers(0, 10_000))
def test_prune_invariants(n_cand, m, seed):
    """Pruned set: <= m edges, subset of candidates, nearest always kept."""
    g = np.random.default_rng(seed)
    vecs = g.normal(size=(n_cand, 3))
    u = g.normal(size=3)
    out = rng_prune(u, np.arange(n_cand), vecs, m)
    assert 1 <= len(out) <= m
    assert set(out.tolist()) <= set(range(n_cand))
    nearest = int(np.argmin(((vecs - u) ** 2).sum(axis=1)))
    assert nearest in out.tolist()


def test_retained_edges_satisfy_rng_definition():
    """No retained edge (u, c) may be prunable by another retained point
    that is closer to u than c is (Definition 2.1 restricted to the
    retained set, which is what greedy RNG pruning guarantees)."""
    g = np.random.default_rng(4)
    vecs = g.normal(size=(40, 4))
    u = g.normal(size=4)
    out = rng_prune(u, np.arange(40), vecs, 40)
    d_u = ((vecs - u) ** 2).sum(axis=1)
    for i, c in enumerate(out):
        for s in out[:i]:  # retained points closer to u than c
            d_sc = ((vecs[s] - vecs[c]) ** 2).sum()
            assert not (d_sc < d_u[c] and d_u[s] < d_u[c])


@pytest.mark.parametrize("m", [2, 4, 8])
def test_brute_force_rng_degree_and_no_self_loops(m):
    g = np.random.default_rng(5)
    vecs = g.normal(size=(30, 4))
    nbrs = brute_force_rng(vecs, m)
    assert nbrs.shape == (30, m)
    for u, row in enumerate(nbrs):
        lst = row[row >= 0]
        assert 1 <= len(lst) <= m
        assert u not in lst.tolist()


def test_brute_force_rng_two_points():
    nbrs = brute_force_rng(np.array([[0.0, 0.0], [1.0, 1.0]]), 4)
    np.testing.assert_array_equal(nbrs, [[1, -1, -1, -1], [0, -1, -1, -1]])
