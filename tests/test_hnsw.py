"""Tests for the HNSW-lite builder (and its SeRF edge-history mode)."""
import numpy as np
import pytest

from repro.core.hnsw import build_hnsw
from repro.core.neighbors import DistanceCounter
from tests import _reference_build as ref
from tests.conftest import make_clustered


@pytest.fixture(scope="module")
def graph_and_data():
    X, Q = make_clustered(256, 16, seed=7)
    return build_hnsw(X, m=8, ef_construction=60, seed=0), X, Q


def test_degree_cap(graph_and_data):
    g, X, _ = graph_and_data
    assert g.adj.shape == (len(X), 8)
    assert np.all((g.adj >= -1) & (g.adj < len(X)))


def test_no_self_loops(graph_and_data):
    g, X, _ = graph_and_data
    for u in range(len(X)):
        assert u not in g.adj[u].tolist()


def test_every_node_has_an_edge(graph_and_data):
    g, _, _ = graph_and_data
    has_out = (g.adj >= 0).any(axis=1)
    # Entry node may have only in-edges in tiny graphs; all others must
    # have out-edges (inserted nodes always keep >= 1 neighbor).
    assert has_out.sum() >= len(g.adj) - 1


def test_recall_on_clustered_data(graph_and_data):
    g, X, Q = graph_and_data
    hits = total = 0
    for q in Q:
        res = g.search(q, beam=60, k=10)
        ref = np.argsort(((X - q) ** 2).sum(axis=1))[:10]
        hits += len(set(res.tolist()) & set(ref.tolist()))
        total += 10
    assert hits / total >= 0.9


def test_beam_improves_recall(graph_and_data):
    g, X, Q = graph_and_data

    def recall(beam):
        h = 0
        for q in Q:
            res = g.search(q, beam=beam, k=10)
            ref = np.argsort(((X - q) ** 2).sum(axis=1))[:10]
            h += len(set(res.tolist()) & set(ref.tolist()))
        return h / (10 * len(Q))

    assert recall(128) >= recall(8) - 1e-9


def test_search_counts_distances(graph_and_data):
    g, _, Q = graph_and_data
    c = DistanceCounter()
    g.search(Q[0], beam=20, k=5, counter=c)
    assert 0 < c.count <= len(g)


def test_deterministic_given_seed():
    X, _ = make_clustered(128, 8, seed=9)
    g1 = build_hnsw(X, m=6, ef_construction=40, seed=3)
    g2 = build_hnsw(X, m=6, ef_construction=40, seed=3)
    np.testing.assert_array_equal(g1.adj, g2.adj)
    assert g1.entry == g2.entry


def test_explicit_order_controls_entry():
    X, _ = make_clustered(64, 8, seed=10)
    g = build_hnsw(X, m=4, ef_construction=30, order=np.arange(64))
    assert g.entry == 0


def test_history_intervals_well_formed():
    X, _ = make_clustered(96, 8, seed=11)
    g = build_hnsw(X, m=4, ef_construction=30, order=np.arange(96),
                   record_history=True)
    assert g.edge_src is not None
    assert len(g.edge_src) == len(g.edge_dst) == len(g.edge_birth)
    assert np.all(g.edge_birth >= 1)
    assert np.all(g.edge_death > g.edge_birth)
    assert np.all(g.edge_death <= 96)


def test_history_final_state_matches_adjacency():
    """Edges alive at the final step == the packed adjacency."""
    X, _ = make_clustered(80, 8, seed=12)
    n = len(X)
    g = build_hnsw(X, m=4, ef_construction=30, order=np.arange(n),
                   record_history=True)
    alive = {(int(s), int(d))
             for s, d, b, dth in zip(g.edge_src, g.edge_dst,
                                     g.edge_birth, g.edge_death)
             if b < n <= dth}
    packed = {(u, int(v)) for u in range(n) for v in g.adj[u] if v >= 0}
    assert alive == packed


def test_labelled_build_keeps_edges_and_searches_inside_labels():
    """With interleaved labels (every cluster holds every label), each
    FilteredVamana edge joins two nodes of one label, so the candidate
    search, which runs without a visit filter, never leaves the label: the
    adjacency equals the reference loop that filters visits by label."""
    X, _ = make_clustered(240, 16, seed=12)
    labels = np.arange(240) % 3
    g = build_hnsw(X, m=6, ef_construction=30, seed=4, labels=labels)
    src, slot = np.nonzero(g.adj >= 0)
    assert len(src) > 240
    np.testing.assert_array_equal(labels[src], labels[g.adj[src, slot]])
    want_adj, _ = ref.filtered_vamana(X, labels, 6, 30, 4)
    np.testing.assert_array_equal(g.adj, want_adj)
