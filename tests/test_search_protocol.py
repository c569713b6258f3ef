"""One search protocol for every single-attribute index.

Each index is driven through ``experiments.search_fn`` (the adapter the
experiment drivers use) on the edge cases every RFANN index must handle:
inverted ranges, ranges empty after clamping to ``[1, n]``, partly
out-of-bounds ranges, ranges shorter than ``k``, a beam larger than the
range, and a dataset no larger than one iRangeGraph leaf. Results must be
unique, at most ``k``, inside the clamped range, and empty exactly when
that range is. Pre-filtering and the iRangeGraph slice scan (clamped
range no longer than the beam) must equal brute force.
"""
import numpy as np
import pytest

from repro.baselines.basic_strategies import PrefilterIndex, WholeGraphIndex
from repro.baselines.filtered_diskann import (FilteredVamanaIndex,
                                              StitchedVamanaIndex)
from repro.baselines.milvus_like import MilvusLikeIndex
from repro.baselines.serf_like import SerfLikeIndex
from repro.baselines.superpostfilter import SuperPostfilterIndex
from repro.core.irange_build import build_irange_index_local
from repro.core.irange_graph import BasicSearchIndex
from repro.core.neighbors import DistanceCounter
from repro.eval.experiments import search_fn
from repro.eval.ground_truth import exact_rfann_np
from repro.eval.workloads import RangeQuery
from tests.conftest import make_clustered

M, EF, LEAF = 8, 30, 32
SIZES = {"n200": 200, "n20_one_leaf": 20}
IRANGE = ("iRangeGraph", "iRangeGraph-")


def _build(name, X):
    if name in IRANGE + ("BasicSearch",):
        ir = build_irange_index_local(X, m=M, ef=EF, leaf_size=LEAF)
        if name == "BasicSearch":
            return search_fn(BasicSearchIndex(ir))
        return search_fn(ir, skip_layers=name == "iRangeGraph")
    if name == "Pre-filtering":
        return search_fn(PrefilterIndex(X))
    if name in ("Post-filtering", "In-filtering"):
        return search_fn(WholeGraphIndex(X, m=M, ef=EF),
                         mode="post" if name == "Post-filtering" else "in")
    return search_fn({
        "Milvus": lambda: MilvusLikeIndex(X, n_buckets=4, m=M, ef=EF),
        "SuperPostfiltering": lambda: SuperPostfilterIndex(
            X, m=M, ef=EF, min_window=16),
        "2DSegmentGraph": lambda: SerfLikeIndex(X, m=M, ef=EF),
        "FilteredVamana": lambda: FilteredVamanaIndex(
            X, n_labels=4, m=M, ef=EF),
        "StitchedVamana": lambda: StitchedVamanaIndex(
            X, n_labels=4, m=M, ef=EF),
    }[name]())


METHODS = ("Pre-filtering", "Post-filtering", "In-filtering", "Milvus",
           "SuperPostfiltering", "2DSegmentGraph", "FilteredVamana",
           "StitchedVamana", "iRangeGraph", "iRangeGraph-", "BasicSearch")


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


@pytest.fixture(scope="module")
def built():
    cache = {}

    def get(size, name):
        if (size, name) not in cache:
            X, Q = make_clustered(SIZES[size], 8, seed=5, nq=4)
            cache[size, name] = (_build(name, X), X, Q)
        return cache[size, name]

    return get


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", METHODS)
def test_search_protocol(built, name, size):
    fn, X, Q = built(size, name)
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
