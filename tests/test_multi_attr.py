"""Tests for the multi-attribute extension (paper Section 4)."""
import numpy as np
import pytest

from repro.baselines.multi_attr_baselines import (ConjunctivePostFilter,
                                                  ConjunctivePrefilter)
from repro.core.multi_attr import MultiAttrIndex
from repro.core.neighbors import DistanceCounter
from repro.eval.ground_truth import exact_rfann_np


@pytest.fixture(scope="module")
def attr2_rank(small_data):
    n = len(small_data[0])
    return np.random.default_rng(42).permutation(n) + 1


@pytest.fixture(scope="module")
def multi(irange_index, attr2_rank):
    return MultiAttrIndex(irange_index, attr2_rank)


def conj_gt(X, q, a2, r1, r2, k=10):
    return exact_rfann_np(X, q, r1[0], r1[1], k, attr2_rank=a2, range2=r2)[0]


R1, R2 = (30, 230), (50, 220)


@pytest.mark.parametrize("mode", ["post", "prob"])
def test_results_satisfy_both_predicates(multi, small_data, attr2_rank, mode):
    _, Q = small_data
    for qi in range(6):
        res = multi.search(Q[qi], R1, R2, beam=60, k=10, mode=mode)
        assert np.all((res >= R1[0]) & (res <= R1[1]))
        a2 = attr2_rank[res - 1]
        assert np.all((a2 >= R2[0]) & (a2 <= R2[1]))


@pytest.mark.parametrize("mode", ["post", "prob"])
def test_recall_moderate_selectivity(multi, small_data, attr2_rank, mode):
    X, Q = small_data
    hits = tot = 0
    for qi in range(len(Q)):
        gt = conj_gt(X, Q[qi], attr2_rank, R1, R2)
        res = multi.search(Q[qi], R1, R2, beam=80, k=10, mode=mode)
        hits += len(set(res.tolist()) & set(gt.tolist()))
        tot += len(gt)
    assert hits / tot >= 0.8, mode


def test_prob_visits_no_more_than_post(multi, small_data):
    """p = exp(-t) skips some attribute-2-out-of-range neighbours that
    Post-filtering scores: summed over queries, it scores no more."""
    _, Q = small_data
    cpost, cprob = DistanceCounter(), DistanceCounter()
    for qi in range(len(Q)):
        multi.search(Q[qi], R1, R2, beam=60, k=10, mode="post", counter=cpost)
        multi.search(Q[qi], R1, R2, beam=60, k=10, mode="prob", counter=cprob)
    assert cprob.count <= cpost.count


def test_prob_deterministic_given_seed(multi, small_data):
    _, Q = small_data
    a = multi.search(Q[0], R1, R2, beam=40, k=10, mode="prob", seed=5)
    b = multi.search(Q[0], R1, R2, beam=40, k=10, mode="prob", seed=5)
    np.testing.assert_array_equal(a, b)


def test_unknown_mode_raises(multi, small_data):
    with pytest.raises(ValueError):
        multi.search(small_data[1][0], R1, R2, beam=10, k=5, mode="zig")


def test_memory_includes_attr2(multi, irange_index):
    assert (
        multi.memory_bytes()["index"]
        == irange_index.memory_bytes()["index"] + multi.attr2_rank.nbytes
    )


class TestConjunctiveBaselines:
    def test_prefilter_exact(self, small_data, attr2_rank):
        X, Q = small_data
        pre = ConjunctivePrefilter(X, attr2_rank)
        for qi in range(6):
            gt = conj_gt(X, Q[qi], attr2_rank, R1, R2)
            res = pre.search(Q[qi], R1, R2, k=10)
            np.testing.assert_array_equal(np.sort(res), np.sort(gt))

    def test_prefilter_counts_conjunctive_matches(self, small_data, attr2_rank):
        X, Q = small_data
        pre = ConjunctivePrefilter(X, attr2_rank)
        c = DistanceCounter()
        pre.search(Q[0], R1, R2, k=10, counter=c)
        a2 = attr2_rank[R1[0] - 1 : R1[1]]
        assert c.count == int(((a2 >= R2[0]) & (a2 <= R2[1])).sum())

    def test_postfilter_wrapper(self, irange_index, small_data, attr2_rank):
        X, Q = small_data
        wrapped = ConjunctivePostFilter(irange_index, attr2_rank)
        res = wrapped.search(Q[1], R1, R2, beam=80, k=10)
        assert len(res) <= 10
        a2 = attr2_rank[res - 1]
        assert np.all((a2 >= R2[0]) & (a2 <= R2[1]))

    def test_postfilter_wrapper_recall(self, irange_index, small_data,
                                       attr2_rank):
        X, Q = small_data
        wrapped = ConjunctivePostFilter(irange_index, attr2_rank)
        hits = tot = 0
        for qi in range(len(Q)):
            gt = conj_gt(X, Q[qi], attr2_rank, R1, R2)
            res = wrapped.search(Q[qi], R1, R2, beam=120, k=10)
            hits += len(set(res.tolist()) & set(gt.tolist()))
            tot += len(gt)
        assert hits / tot >= 0.7

    def test_empty_first_range(self, irange_index, small_data, attr2_rank):
        wrapped = ConjunctivePostFilter(irange_index, attr2_rank)
        assert len(wrapped.search(small_data[1][0], (9, 2), R2, beam=20,
                                  k=5)) == 0
