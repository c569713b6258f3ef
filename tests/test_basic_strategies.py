"""Tests for the Pre-/Post-/In-filtering strategies (paper Section 2.2)."""
import numpy as np
import pytest

from repro.baselines.basic_strategies import PrefilterIndex
from repro.core.neighbors import DistanceCounter


@pytest.fixture(scope="module")
def prefilter(small_data):
    return PrefilterIndex(small_data[0])


class TestPrefilter:
    def test_exact_results(self, prefilter, small_data, gt10):
        _, Q = small_data
        g = np.random.default_rng(0)
        for qi in range(len(Q)):
            lo = int(g.integers(1, 150))
            hi = int(g.integers(lo + 20, 257))
            res = prefilter.search(Q[qi], lo, hi, k=10)
            np.testing.assert_array_equal(np.sort(res), np.sort(gt10(qi, lo, hi)))

    def test_cost_equals_range_length(self, prefilter, small_data):
        _, Q = small_data
        c = DistanceCounter()
        prefilter.search(Q[0], 50, 149, k=10, counter=c)
        assert c.count == 100

    def test_empty_range(self, prefilter, small_data):
        _, Q = small_data
        assert len(prefilter.search(Q[0], 9, 2, k=5)) == 0

    def test_short_range_fewer_than_k(self, prefilter, small_data):
        _, Q = small_data
        res = prefilter.search(Q[0], 10, 12, k=10)
        assert sorted(res.tolist()) == [10, 11, 12]

    def test_memory_is_vectors_only(self, prefilter, small_data):
        mb = prefilter.memory_bytes()
        assert mb["index"] == 0 and mb["vectors"] == small_data[0].nbytes


class TestPostfilter:
    def test_results_in_range(self, whole_graph, small_data):
        _, Q = small_data
        res = whole_graph.search(Q[0], 30, 200, beam=40, k=10, mode="post")
        assert np.all((res >= 30) & (res <= 200))

    def test_recall_on_unselective_range(self, whole_graph, small_data, gt10):
        _, Q = small_data
        hits = tot = 0
        for qi in range(len(Q)):
            gt = gt10(qi, 1, 256)
            res = whole_graph.search(Q[qi], 1, 256, beam=80, k=10, mode="post")
            hits += len(set(res.tolist()) & set(gt.tolist()))
            tot += len(gt)
        assert hits / tot >= 0.9

    def test_selective_range_hurts_recall_at_fixed_beam(
        self, whole_graph, small_data, gt10
    ):
        """The paper's Post-filtering pathology: at a fixed beam, a very
        selective predicate yields fewer in-range hits than an
        unselective one."""
        _, Q = small_data

        def recall(lo, hi):
            hits = tot = 0
            for qi in range(len(Q)):
                gt = gt10(qi, lo, hi)
                res = whole_graph.search(Q[qi], lo, hi, beam=15, k=10,
                                         mode="post")
                hits += len(set(res.tolist()) & set(gt.tolist()))
                tot += len(gt)
            return hits / tot

        assert recall(1, 256) >= recall(100, 115) - 1e-9


class TestInfilter:
    def test_results_in_range(self, whole_graph, small_data):
        _, Q = small_data
        res = whole_graph.search(Q[1], 60, 180, beam=40, k=10, mode="in")
        assert np.all((res >= 60) & (res <= 180))

    def test_visits_only_in_range(self, whole_graph, small_data):
        """In-filtering's distance count can never exceed the number of
        in-range objects."""
        _, Q = small_data
        c = DistanceCounter()
        whole_graph.search(Q[2], 40, 89, beam=300, k=10, mode="in", counter=c)
        assert c.count <= 50

    def test_recall_on_moderate_range(self, whole_graph, small_data, gt10):
        _, Q = small_data
        hits = tot = 0
        for qi in range(len(Q)):
            gt = gt10(qi, 20, 230)
            res = whole_graph.search(Q[qi], 20, 230, beam=80, k=10, mode="in")
            hits += len(set(res.tolist()) & set(gt.tolist()))
            tot += len(gt)
        assert hits / tot >= 0.6  # inherently weak: in-range subgraph may
        # be disconnected (the paper's motivation for dedicated graphs)

    def test_unknown_mode_raises(self, whole_graph, small_data):
        with pytest.raises(ValueError):
            whole_graph.search(small_data[1][0], 1, 10, beam=5, k=3,
                               mode="bogus")
