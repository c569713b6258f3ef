"""Tests for Algorithm 1 (edge selection with layer skipping)."""
import numpy as np
import pytest

from repro.core.irange_graph import IRangeGraphIndex


@pytest.mark.parametrize("skip", [True, False])
def test_selected_edges_in_range_and_capped(irange_index, skip):
    idx = irange_index
    g = np.random.default_rng(0)
    for _ in range(50):
        lo = int(g.integers(1, idx.n))
        hi = int(g.integers(lo, idx.n + 1))
        u = int(g.integers(lo, hi + 1)) - 1  # in-range node
        sel = idx.select_edges(u, lo, hi, skip_layers=skip)
        assert len(sel) <= idx.m
        assert len(np.unique(sel)) == len(sel)
        assert np.all((sel >= lo - 1) & (sel <= hi - 1))
        assert u not in sel.tolist()


def test_full_range_equals_root_graph(irange_index):
    """For [1, n] every layer-0 edge is in range, so Algorithm 1 must
    return exactly the root elemental graph's edges."""
    idx = irange_index
    root_adj = idx.layer_adj[0]
    for u in range(0, idx.n, 17):
        sel = idx.select_edges(u, 1, idx.n)
        root = root_adj[u][root_adj[u] >= 0]
        np.testing.assert_array_equal(sel, root)


def test_covered_segment_terminates_selection(irange_index):
    """When a segment is covered by the query range, selection stops
    there (paper: edges pruned in a covered segment stay pruned)."""
    idx = irange_index
    # Query range = exactly one layer-1 segment.
    seg = idx.tree.segments_at(1)[0]
    u = seg.lo - 1  # first node of the segment
    sel = idx.select_edges(u, seg.lo, seg.hi)
    # Candidate edges can only come from layers 0..1 (selection breaks at
    # the covered layer-1 segment).
    allowed = set()
    for lay in (0, 1):
        row = idx.layer_adj[lay][u]
        allowed |= {int(v) for v in row if v >= 0}
    assert set(sel.tolist()) <= allowed


def test_skip_prioritizes_deeper_layers(irange_index):
    """When the query range is contained in one child of the root, the
    root layer is skipped: selected edges must not include root-layer
    edges that are absent from deeper layers, for the first m found."""
    idx = irange_index
    half = idx.tree.segments_at(1)[0]  # left child of root
    lo, hi = half.lo, half.hi
    u = (lo + hi) // 2 - 1
    sel_skip = idx.select_edges(u, lo, hi, skip_layers=True)
    # Skipped selection must equal selection in the subtree rooted at the
    # left child, i.e., never touch layer-0 edges.
    l1 = idx.layer_adj[1][u]
    deeper = {int(v) for lay in range(1, idx.tree.num_layers)
              for v in idx.layer_adj[lay][u] if v >= 0}
    assert set(sel_skip.tolist()) <= deeper


def test_noskip_is_superset_prefix_of_upper_layers(irange_index):
    """Without skipping, selection walks every layer top-down; its first
    edges must come from the uppermost layer that has in-range edges."""
    idx = irange_index
    g = np.random.default_rng(1)
    for _ in range(20):
        lo = int(g.integers(1, idx.n))
        hi = int(g.integers(lo, idx.n + 1))
        u = int(g.integers(lo, hi + 1)) - 1
        sel = idx.select_edges(u, lo, hi, skip_layers=False)
        row0 = idx.layer_adj[0][u]
        l0_inrange = [int(v) for v in row0
                      if v >= 0 and lo - 1 <= v <= hi - 1][: idx.m]
        np.testing.assert_array_equal(sel[: len(l0_inrange)], l0_inrange)


def test_single_point_range(irange_index):
    idx = irange_index
    u = 99
    sel = idx.select_edges(u, 100, 100)
    assert len(sel) == 0  # only itself in range; no in-range neighbors


def test_repeated_search_is_deterministic(irange_index, small_data):
    """Two identical searches return identical results (determinism)."""
    X, Q = small_data
    a = irange_index.search(Q[0], 40, 200, beam=30, k=10)
    b = irange_index.search(Q[0], 40, 200, beam=30, k=10)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("skip", [True, False])
@pytest.mark.parametrize("filtered", [False, True])
def test_search_selects_each_nodes_edges_once(irange_index, small_data,
                                              monkeypatch, skip, filtered):
    """The search keeps no per-query cache of edge selections: each node
    is expanded at most once, so it gets Algorithm 1 at most once, also
    when a visit filter rejects some of its neighbours."""
    X, Q = small_data
    calls: list[int] = []
    select = IRangeGraphIndex.select_edges

    def spy(self, u, *args, **kwargs):
        calls.append(u)
        return select(self, u, *args, **kwargs)

    monkeypatch.setattr(IRangeGraphIndex, "select_edges", spy)
    visit = (lambda v: v % 3 != 1) if filtered else None
    for qi, (lo, hi), beam in [(0, (1, 256), 40), (1, (40, 200), 30),
                               (2, (100, 180), 60), (3, (7, 250), 120)]:
        calls.clear()
        irange_index.search(Q[qi], lo, hi, beam=beam, k=10,
                            skip_layers=skip, visit_filter=visit)
        assert calls  # a graph search, not the slice scan
        assert len(calls) == len(set(calls))


def test_skip_and_noskip_recall_close(irange_index, small_data, gt10):
    """The two variants build slightly different dedicated graphs but
    both must search well (the ablation compares their *efficiency*)."""
    X, Q = small_data

    def recall(skip):
        hits = tot = 0
        for qi in range(len(Q)):
            gt = gt10(qi, 60, 220)
            res = irange_index.search(
                Q[qi], 60, 220, beam=40, k=10, skip_layers=skip
            )
            hits += len(set(res.tolist()) & set(gt.tolist()))
            tot += len(gt)
        return hits / tot

    r_skip, r_noskip = recall(True), recall(False)
    assert r_skip >= 0.85
    assert r_noskip >= 0.85
