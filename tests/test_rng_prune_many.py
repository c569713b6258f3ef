"""``rng_prune_many`` must return, row by row, what the per-node
reference RNG prune in ``tests/_reference_build.py`` returns.

It prunes a padded block of candidate rows in lockstep; the lockstep
``brute_force_rng`` is checked in ``test_build_equivalence.py``.
"""
import numpy as np
import pytest

from repro.core import rng_prune as rp
from repro.core.neighbors import NO_EDGE
from tests import _reference_build as ref

DTYPES = [np.float32, np.float64]


def _block(rows: list[list[int]], pad: int = 0) -> np.ndarray:
    """The rows as one ``NO_EDGE``-padded block, ``pad`` columns wider
    than the longest row."""
    width = max([len(r) for r in rows] + [0]) + pad
    cand = np.full((len(rows), width), NO_EDGE, dtype=np.int64)
    for i, r in enumerate(rows):
        cand[i, :len(r)] = r
    return cand


def _check(u_vecs, cand, vecs, m):
    got = rp.rng_prune_many(u_vecs, cand, vecs, m)
    assert got.shape == (len(cand), m) and got.dtype == np.int64
    for i, row in enumerate(cand):
        ids = row[row >= 0]
        want = ref.rng_prune(u_vecs[i], ids, vecs[ids], m)
        np.testing.assert_array_equal(got[i, :len(want)], want)
        assert np.all(got[i, len(want):] == NO_EDGE)
    return got


def _ragged(g, rows, n, dtype):
    """A random block shaped like a parent side's: per row a short run
    and a long run of ids (duplicates possible), each followed by
    padding, over vectors that repeat, with some rows' node sitting on
    one of its candidates."""
    d = int(g.integers(2, 9))
    vecs = g.normal(size=(n, d))
    dup = g.random(n) < 0.2
    vecs[dup] = vecs[g.integers(0, n, int(dup.sum()))]
    short, long = int(g.integers(0, 8)), int(g.integers(0, 40))
    cand = np.full((rows, short + long), NO_EDGE, dtype=np.int64)
    for i in range(rows):
        a, b = int(g.integers(0, short + 1)), int(g.integers(0, long + 1))
        cand[i, :a] = g.integers(0, n, a)
        cand[i, short:short + b] = g.integers(0, n, b)
    u = g.normal(size=(rows, d))
    on = g.random(rows) < 0.3
    u[on] = vecs[g.integers(0, n, int(on.sum()))]
    return u.astype(dtype), cand, vecs.astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_random_blocks_match_reference(dtype):
    g = np.random.default_rng(7 + (dtype is np.float32))
    for _ in range(60):
        rows = int(g.integers(1, 3 * rp._BLOCK))
        u, cand, vecs = _ragged(g, rows, int(g.integers(1, 60)), dtype)
        _check(u, cand, vecs, int(g.integers(1, 12)))


def test_duplicate_ids_keep_first_occurrence():
    g = np.random.default_rng(0)
    vecs = g.normal(size=(10, 4)).astype(np.float32)
    cand = _block([[5, 5, 6, NO_EDGE, 5, 2], [7, 3, 7, 3, 7], [1, 1, 1]],
                  pad=2)
    _check(g.normal(size=(3, 4)).astype(np.float32), cand, vecs, 4)


def test_identical_vectors_tie_by_position():
    """Distinct ids with one vector: every d_u ties, so each row keeps
    its first candidate, which then prunes the rest (d(s, c) = 0)."""
    vecs = np.ones((5, 3), dtype=np.float32)
    cand = _block([[3, 1, 4, 0, 2], [0, 1, 2, 3, 4], [4, 3, 2, 1, 0]])
    got = _check(np.zeros((3, 3), dtype=np.float32), cand, vecs, 4)
    np.testing.assert_array_equal(got[:, 0], [3, 0, 4])
    assert np.all(got[:, 1:] == NO_EDGE)


def test_candidate_at_distance_zero():
    g = np.random.default_rng(1)
    vecs = g.normal(size=(12, 5)).astype(np.float32)
    u = vecs[[4, 9]].copy()
    cand = _block([[0, 1, 4, 7, 8], [9, 2, 3, 11, 4, 9]])
    got = _check(u, cand, vecs, 5)
    np.testing.assert_array_equal(got[:, 0], [4, 9])


def test_empty_rows():
    g = np.random.default_rng(2)
    vecs = g.normal(size=(8, 3))
    u = g.normal(size=(3, 3))
    got = _check(u, _block([[1, 2, 3], [], [NO_EDGE, 6]], pad=3), vecs, 4)
    assert np.all(got[1] == NO_EDGE)
    assert np.all(_check(u, _block([[], [], []], pad=4), vecs, 4) == NO_EDGE)
    assert _check(u[:0], _block([]), vecs, 4).shape == (0, 4)


def test_fewer_survivors_than_m():
    """Orthogonal candidates prune nothing, so every row keeps all of its
    distinct ids, fewer than m."""
    vecs = np.eye(6)
    cand = _block([[0, 1, 2], [3, 3, 4], [5]], pad=1)
    got = _check(np.zeros((3, 6)), cand, vecs, 8)
    assert ((got >= 0).sum(axis=1) == [3, 2, 1]).all()


def test_m_one_keeps_nearest():
    g = np.random.default_rng(3)
    u, cand, vecs = _ragged(g, 20, 40, np.float32)
    got = _check(u, cand, vecs, 1)
    assert got.shape == (20, 1)


def test_one_row_block():
    g = np.random.default_rng(4)
    u, cand, vecs = _ragged(g, 1, 50, np.float32)
    _check(u, cand, vecs, 6)


def test_more_rows_than_one_block():
    """Rows in later blocks, and pairs past the first scoring chunk, are
    pruned as in the first."""
    g = np.random.default_rng(5)
    rows = 2 * rp._BLOCK + 3
    vecs = g.normal(size=(400, 6)).astype(np.float32)
    u = g.normal(size=(rows, 6)).astype(np.float32)
    cand = g.integers(0, 400, (rows, 40))
    cand[g.random(cand.shape) < 0.2] = NO_EDGE
    assert np.count_nonzero(cand[:rp._BLOCK] >= 0) > 1.5 * rp._PAIRS
    got = _check(u, cand, vecs, 6)
    for lo in (0, rp._BLOCK - 1, 2 * rp._BLOCK):
        np.testing.assert_array_equal(
            rp.rng_prune_many(u[lo:lo + 2], cand[lo:lo + 2], vecs, 6),
            got[lo:lo + 2])
