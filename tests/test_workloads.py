"""Tests for the workload generators (paper Section 5.1)."""
import numpy as np
import pytest

from repro.eval.workloads import (MAX_EXP, fixed_workload, mixed_workload,
                                  multiattr_workload, shared_range_workload)


@pytest.mark.parametrize("frac_exp", [0, 2, 5, 8])
def test_fixed_workload_lengths(frac_exp):
    n = 4096
    wl = fixed_workload(n, 40, frac_exp, seed=1)
    assert len(wl) == 40
    for q in wl:
        assert 1 <= q.lo <= q.hi <= n
        assert q.hi - q.lo + 1 == max(1, n >> frac_exp)


def test_fixed_workload_fraction_zero_is_full_range():
    wl = fixed_workload(256, 5, 0)
    assert all((q.lo, q.hi) == (1, 256) for q in wl)


def test_fixed_workload_deterministic():
    a = fixed_workload(1024, 20, 3, seed=7)
    b = fixed_workload(1024, 20, 3, seed=7)
    assert a == b
    c = fixed_workload(1024, 20, 3, seed=8)
    assert a != c


def test_mixed_workload_cycles_fractions():
    n = 1024
    wl = mixed_workload(n, 30, seed=0)
    for q in wl:
        i = q.qid % (MAX_EXP + 1)
        assert q.hi - q.lo + 1 == max(1, n >> i)


def test_mixed_workload_qids_dense():
    wl = mixed_workload(512, 25, seed=2)
    assert [q.qid for q in wl] == list(range(25))


def test_shared_range_workload_few_distinct():
    wl = shared_range_workload(2048, 100, seed=3)
    distinct = {(q.lo, q.hi) for q in wl}
    assert len(distinct) <= 10
    assert len(wl) == 100


def test_shared_range_workload_group_alignment():
    wl = shared_range_workload(2048, 40, seed=4)
    for q in wl:
        peer = wl[q.qid % 10]
        assert (q.lo, q.hi) == (peer.lo, peer.hi)


def test_multiattr_workload_two_ranges():
    n = 1024
    wl = multiattr_workload(n, 20, seed=5)
    for q in wl:
        assert q.lo2 is not None and q.hi2 is not None
        assert 1 <= q.lo <= q.hi <= n
        assert 1 <= q.lo2 <= q.hi2 <= n
        assert q.hi - q.lo + 1 == n >> 2
        assert q.hi2 - q.lo2 + 1 == n >> 2


def test_tiny_n_never_breaks():
    for wl in (fixed_workload(4, 6, 8), mixed_workload(4, 6)):
        for q in wl:
            assert 1 <= q.lo <= q.hi <= 4
