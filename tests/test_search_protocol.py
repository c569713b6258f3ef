"""One search protocol for every single-attribute and conjunctive index.

Each index is driven through ``experiments.search_fn`` (the adapter the
experiment drivers use) on the edge cases every RFANN index must handle:
inverted ranges, ranges empty after clamping to ``[1, n]``, partly
out-of-bounds ranges, ranges shorter than ``k``, a beam larger than the
range, and a dataset no larger than one iRangeGraph leaf. Results must be
unique, at most ``k``, inside the clamped range(s), and empty when brute
force is; a range (range 1 for conjunctive queries) empty after clamping
costs no distance. Pre-filtering and the iRangeGraph slice scan (clamped
range 1 no longer than the beam) must equal brute force.
"""
import numpy as np
import pytest

from repro.baselines.basic_strategies import PrefilterIndex
from repro.baselines.filtered_diskann import (FilteredVamanaIndex,
                                              StitchedVamanaIndex)
from repro.baselines.milvus_like import MilvusLikeIndex
from repro.baselines.multi_attr_baselines import (ConjunctivePostFilter,
                                                  ConjunctivePrefilter)
from repro.baselines.serf_like import SerfLikeIndex
from repro.baselines.superpostfilter import SuperPostfilterIndex
from repro.core.irange_build import build_irange_index_local
from repro.core.irange_graph import BasicSearchIndex
from repro.core.multi_attr import MultiAttrIndex
from repro.core.neighbors import DistanceCounter
from repro.eval.experiments import search_fn
from repro.eval.ground_truth import exact_rfann_np
from repro.eval.workloads import RangeQuery
from tests.conftest import make_clustered

M, EF, LEAF = 8, 30, 32
SIZES = {"n200": 200, "n20_one_leaf": 20}
IRANGE = ("iRangeGraph", "iRangeGraph-")


def _build(name, X):
    if name == "iRangeGraph":
        return build_irange_index_local(X, m=M, ef=EF, leaf_size=LEAF)
    if name == "Pre-filtering":
        return PrefilterIndex(X)
    return {
        "Milvus": lambda: MilvusLikeIndex(X, n_buckets=4, m=M, ef=EF),
        "SuperPostfiltering": lambda: SuperPostfilterIndex(
            X, m=M, ef=EF, min_window=16),
        "2DSegmentGraph": lambda: SerfLikeIndex(X, m=M, ef=EF),
        "FilteredVamana": lambda: FilteredVamanaIndex(
            X, n_labels=4, m=M, ef=EF),
        "StitchedVamana": lambda: StitchedVamanaIndex(
            X, n_labels=4, m=M, ef=EF),
    }[name]()


METHODS = ("Pre-filtering", "Milvus", "SuperPostfiltering", "2DSegmentGraph",
           "FilteredVamana", "StitchedVamana", "iRangeGraph", "iRangeGraph-",
           "BasicSearch")
# Figure 5's lineup: iRangeGraph+ and iRangeGraph are MultiAttrIndex in
# modes "prob" and "post"; Milvus and 2DSegmentGraph Post-filter range 2.
CONJ_METHODS = ("iRangeGraph+", "iRangeGraph", "Pre-filtering", "Milvus",
                "2DSegmentGraph")


def _cases(n):
    """name -> (lo, hi, beam, k)."""
    return {
        "inverted": (n // 2, n // 4, 20, 5),
        "empty_low": (0, 0, 20, 5),
        "empty_high": (n + 2, n + 5, 20, 5),
        "partly_below": (-3, n // 3, 20, 5),
        "partly_above": (n - n // 3, n + 7, 20, 5),
        "shorter_than_k": (5, 7, 20, 10),
        "beam_over_range": (n // 2, n // 2 + 9, 40, 5),
        "whole": (1, n, 20, 5),
    }


def _conj_cases(n):
    """name -> (range1, range2, beam, k)."""
    whole = (1, n)
    return {
        "inverted1": ((n // 2, n // 4), whole, 20, 5),
        "inverted2": (whole, (n // 2, n // 4), 20, 5),
        "empty1_low": ((0, 0), whole, 20, 5),
        "empty1_high": ((n + 2, n + 5), whole, 20, 5),
        "empty2_low": (whole, (-4, 0), 20, 5),
        "empty2_high": (whole, (n + 1, n + 9), 20, 5),
        "partly_out": ((-3, 2 * n // 3), (n // 3, n + 7), 20, 5),
        "fewer_than_k": (whole, (5, 7), 20, 10),
        "beam_over_range1": ((n // 2, n // 2 + 9), (1, n // 2), 40, 5),
        "whole": (whole, whole, 20, 5),
    }


@pytest.fixture(scope="module")
def built():
    """(size, index name) -> (index, X, Q); each index is built once."""
    cache = {}

    def get(size, name):
        if (size, name) not in cache:
            X, Q = make_clustered(SIZES[size], 8, seed=5, nq=4)
            cache[size, name] = (_build(name, X), X, Q)
        return cache[size, name]

    return get


def _single(built, size, name):
    """Harness search function of single-attribute ``name``, X, Q."""
    if name in IRANGE + ("BasicSearch",):
        ir, X, Q = built(size, "iRangeGraph")
        if name == "BasicSearch":
            return search_fn(BasicSearchIndex(ir)), X, Q
        return search_fn(ir, skip_layers=name == "iRangeGraph"), X, Q
    index, X, Q = built(size, name)
    return search_fn(index), X, Q


def _conjunctive(built, size, name):
    """Harness search function of conjunctive ``name``, X, Q, attr-2 ranks."""
    irange = name.startswith("iRangeGraph")
    index, X, Q = built(size, "iRangeGraph" if irange else name)
    a2 = np.random.default_rng(7).permutation(len(X)) + 1
    if irange:
        mode = "prob" if name == "iRangeGraph+" else "post"
        return search_fn(MultiAttrIndex(index, a2), mode=mode), X, Q, a2
    if name == "Pre-filtering":
        return search_fn(ConjunctivePrefilter(X, a2)), X, Q, a2
    return search_fn(ConjunctivePostFilter(index, a2)), X, Q, a2


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", METHODS)
def test_search_protocol(built, name, size):
    fn, X, Q = _single(built, size, name)
    n = len(X)
    for case, (lo, hi, beam, k) in _cases(n).items():
        clo, chi = max(1, lo), min(n, hi)
        for qi, qv in enumerate(Q):
            c = DistanceCounter()
            res = fn(qv, RangeQuery(qi, lo, hi), beam, k, c)
            msg = f"{name} {case} [{lo}, {hi}] q{qi}: {res}"
            assert len(res) == len(np.unique(res)) <= k, msg
            assert np.all((res >= clo) & (res <= chi)), msg
            if clo > chi:
                assert len(res) == 0 and c.count == 0, msg
                continue
            if name == "Pre-filtering" or (
                name in IRANGE and chi - clo + 1 <= beam
            ):
                want, _ = exact_rfann_np(X, qv, clo, chi, k)
                np.testing.assert_array_equal(res, want, err_msg=msg)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", CONJ_METHODS)
def test_conjunctive_search_protocol(built, name, size):
    fn, X, Q, a2 = _conjunctive(built, size, name)
    n = len(X)
    for case, (r1, r2, beam, k) in _conj_cases(n).items():
        clo, chi = max(1, r1[0]), min(n, r1[1])
        for qi, qv in enumerate(Q):
            c = DistanceCounter()
            res = fn(qv, RangeQuery(qi, *r1, *r2), beam, k, c)
            msg = f"{name} {case} {r1} x {r2} q{qi}: {res}"
            assert len(res) == len(np.unique(res)) <= k, msg
            assert np.all((res >= clo) & (res <= chi)), msg
            r2_of_res = a2[res - 1]
            assert np.all((r2_of_res >= r2[0]) & (r2_of_res <= r2[1])), msg
            if clo > chi:
                assert c.count == 0, msg
            want, _ = exact_rfann_np(X, qv, *r1, k, attr2_rank=a2, range2=r2)
            if len(want) == 0:
                assert len(res) == 0, msg
            if name == "Pre-filtering" or (
                name.startswith("iRangeGraph") and chi - clo + 1 <= beam
            ):
                np.testing.assert_array_equal(res, want, err_msg=msg)
