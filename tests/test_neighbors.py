"""Unit tests for distance kernels and the padded-adjacency helpers."""
import numpy as np

from repro.core.neighbors import (NO_EDGE, DistanceCounter, dist_batch,
                                  empty_adjacency, pack_neighbors,
                                  pairwise_sq)


def test_dist_batch_values_and_counter():
    g = np.random.default_rng(1)
    q = g.normal(size=4)
    x = g.normal(size=(10, 4))
    c = DistanceCounter()
    d = dist_batch(q, x, c)
    assert c.count == 10
    np.testing.assert_allclose(d, ((x - q) ** 2).sum(axis=1))


def test_dist_batch_counter_accumulates():
    c = DistanceCounter()
    x = np.zeros((3, 2))
    dist_batch(np.zeros(2), x, c)
    dist_batch(np.zeros(2), x, c)
    assert c.count == 6


def test_pairwise_sq_symmetric_nonnegative():
    x = np.random.default_rng(2).normal(size=(12, 5))
    d = pairwise_sq(x)
    assert d.shape == (12, 12)
    assert np.all(d >= 0)
    np.testing.assert_allclose(d, d.T, atol=1e-9)
    np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-9)


def test_pairwise_sq_cross():
    g = np.random.default_rng(3)
    x, y = g.normal(size=(4, 3)), g.normal(size=(6, 3))
    d = pairwise_sq(x, y)
    ref = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_allclose(d, ref, atol=1e-9)


def test_empty_adjacency_is_all_padding():
    adj = empty_adjacency(4, 3)
    assert adj.shape == (4, 3)
    assert np.all(adj == NO_EDGE)


def test_pack_and_read_neighbors():
    lists = [np.array([1, 2]), np.array([], dtype=int), np.array([0, 3, 2, 1])]
    adj = pack_neighbors(lists, m=3)
    np.testing.assert_array_equal(adj[0], [1, 2, NO_EDGE])
    np.testing.assert_array_equal(adj[1], [NO_EDGE] * 3)
    # Over-long list is truncated to m.
    np.testing.assert_array_equal(adj[2], [0, 3, 2])


def test_adjacency_bytes_is_int32():
    """Table 2 counts 4 bytes per padded edge slot."""
    adj = empty_adjacency(10, 4)
    assert adj.nbytes == 10 * 4 * 4
