"""Tests for the Pre-filtering baseline (paper Section 2.2)."""
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
