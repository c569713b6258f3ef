"""The lockstep kernel against its reference: ``beam_search`` of each
query on its own, then a stable sort by distance (what the index build's
case-2 search did per node). Ids and their order must be identical."""
import numpy as np
import pytest

from repro.core import beam_search as bs
from repro.core.beam_search import beam_search, beam_search_many
from repro.core.neighbors import NO_EDGE
from tests import _reference_search as ref


def _check(queries, vectors, adj, entry, beam):
    got = beam_search_many(queries, vectors, adj, entry, beam=beam)
    assert got.shape == (len(queries), beam) and got.dtype == np.int64
    want = ref.beam_search_many(queries, vectors, adj, entry, beam=beam,
                                search=beam_search)
    np.testing.assert_array_equal(got, want)
    return got


def _graph(g, c, m, fill):
    """A padded ``(c, m)`` adjacency: row ``u`` holds distinct ids (maybe
    ``u`` itself), left-packed, about ``fill * m`` of them."""
    adj = np.full((c, m), NO_EDGE, dtype=np.int32)
    for u in range(c):
        k = min(int(g.binomial(m, fill)), c)
        adj[u, :k] = g.permutation(c)[:k]
    return adj


def _tied(g, c, d):
    """Small-integer vectors, a third of them copies of others: many
    distances tie exactly, also at the admission threshold."""
    x = g.integers(-2, 3, size=(c, d)).astype(np.float32)
    dup = g.random(c) < 0.35
    x[dup] = x[g.integers(0, c, int(dup.sum()))]
    return x


@pytest.mark.parametrize("seed", range(12))
def test_random_graphs_with_ties(seed):
    g = np.random.default_rng(seed)
    c = int(g.integers(2, 120))
    m = int(g.integers(1, 12))
    d = int(g.integers(1, 5))
    x = _tied(g, c, d)
    adj = _graph(g, c, m, float(g.uniform(0.2, 1.0)))
    queries = _tied(g, int(g.integers(1, 90)), d)
    queries[0] = x[int(g.integers(0, c))]  # zero distance to a node
    for beam in (1, 2, int(g.integers(3, 40)), c, c + 7):
        _check(queries, x, adj, int(g.integers(0, c)), beam)


def test_ties_at_the_threshold_within_one_expansion():
    """Eight vectors, each repeated eight times, in a dense graph: an
    expansion scores runs of equal distances while the beam fills and
    at its threshold."""
    g = np.random.default_rng(40)
    x = np.repeat(g.normal(size=(8, 3)).astype(np.float32), 8, axis=0)
    adj = _graph(g, 64, 16, 0.9)
    queries = g.normal(size=(30, 3)).astype(np.float32)
    queries[:8] = x[::8]
    for beam in (1, 3, 8, 9, 17, 64):
        _check(queries, x, adj, 5, beam)


def test_permuted_vectors_tie_only_in_dot_bits():
    """Nodes whose coordinates are permutations of one float vector, and
    a query at the origin: their distances agree in value and differ only
    in rounding. ``np.dot`` and the kernel give equal bits (so ties fall
    by scoring order); ``einsum`` breaks some of those ties."""
    g = np.random.default_rng(41)
    base = g.normal(size=32).astype(np.float32)
    x = np.stack([g.permutation(base) for _ in range(90)])
    dot = np.array([np.dot(v, v) for v in x], dtype=np.float32)
    np.testing.assert_array_equal(bs._sq_norms(x), dot)
    ein = np.einsum("ij,ij->i", x, x)
    assert any(len(np.unique(ein[dot == v])) > 1 for v in np.unique(dot))
    adj = _graph(g, 90, 8, 0.8)
    queries = np.zeros((3, 32), dtype=np.float32)
    queries[1] = x[7]
    queries[2] = x[7] * np.float32(1e-3)
    for beam in (1, 2, 5, 20, 90):
        _check(queries, x, adj, 0, beam)


def test_unreachable_nodes_are_never_returned():
    """Two components; entered in the first, the search cannot leave it,
    even with a beam larger than the graph."""
    g = np.random.default_rng(42)
    x = _tied(g, 60, 3)
    first, second = _graph(g, 30, 6, 0.7), _graph(g, 30, 6, 0.7)
    adj = np.vstack([first, np.where(second >= 0, second + 30, NO_EDGE)])
    queries = _tied(g, 25, 3)
    for beam in (4, 30, 100):
        got = _check(queries, x, adj, 3, beam)
        assert got.max() < 30


def test_one_query_and_mostly_padding():
    """A path graph in a wide padded adjacency: each row has one edge."""
    g = np.random.default_rng(43)
    x = g.normal(size=(40, 4)).astype(np.float32)
    adj = np.full((40, 9), NO_EDGE, dtype=np.int32)
    adj[:-1, 0] = np.arange(1, 40)
    adj[1:, 1] = np.arange(39)
    adj[1::2, :2] = adj[1::2, 1::-1]  # odd rows list the back edge first
    for beam in (1, 3, 40):
        _check(x[[17]], x, adj, 0, beam)
        _check(x[[17]] + 0.5, x, adj, 39, beam)
    _check(x, x, np.full((40, 9), NO_EDGE, dtype=np.int32), 11, 5)


def test_more_queries_than_a_block():
    g = np.random.default_rng(44)
    x = _tied(g, 80, 4)
    adj = _graph(g, 80, 7, 0.6)
    queries = _tied(g, 2 * bs._BLOCK + 3, 4)
    _check(queries, x, adj, 40, 12)


def test_no_queries():
    x = np.zeros((5, 2), dtype=np.float32)
    adj = np.full((5, 3), NO_EDGE, dtype=np.int32)
    got = beam_search_many(x[:0], x, adj, 0, beam=4)
    assert got.shape == (0, 4) and got.dtype == np.int64


def test_rows_wider_than_256_are_rejected():
    """The earlier-pair counts are summed in uint8."""
    x = np.zeros((300, 2), dtype=np.float32)
    adj = np.full((300, 257), NO_EDGE, dtype=np.int32)
    with pytest.raises(ValueError):
        beam_search_many(x[:1], x, adj, 0, beam=4)
