"""Query-range workload generators (paper Section 5.1, "Query Ranges").

A query has *range fraction* ``2^-i`` when its rank range covers
``n / 2^i`` objects. The paper groups fractions into large (i in [0,3]),
moderate (i in [4,6]) and small (i in [7,9]) scales and evaluates

* **fixed** workloads — every query has the same fraction, random
  location, and
* **mixed** workloads — queries split into groups, group ``i`` gets
  fraction ``2^-i``.

For the Oracle-HNSW study (Figure 4) ranges are shared per group so only
a handful of distinct dedicated HNSWs must be materialized.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_EXP = 8  # smallest fraction 2^-8: >= k objects at reproduction scale
SHARED_RANGES = 10  # Figure 4's distinct ranges (Oracle-HNSW graphs)
MULTIATTR_FRAC_EXP = 2  # Figure 5's expected fraction 2^-2 per attribute


@dataclass(frozen=True)
class RangeQuery:
    """One RFANN query: query-vector index + 1-based rank range(s)."""

    qid: int
    lo: int
    hi: int
    lo2: int | None = None
    hi2: int | None = None


def _random_range(n: int, length: int, g: np.random.Generator) -> tuple[int, int]:
    length = max(1, min(n, length))
    lo = int(g.integers(1, n - length + 2))
    return lo, lo + length - 1


def fixed_workload(
    n: int, nq: int, frac_exp: int, *, seed: int = 0
) -> list[RangeQuery]:
    """All queries share fraction ``2^-frac_exp``; locations random."""
    g = np.random.default_rng(seed * 1000 + frac_exp)
    length = max(1, n >> frac_exp)
    return [
        RangeQuery(q, *_random_range(n, length, g)) for q in range(nq)
    ]


def mixed_workload(n: int, nq: int, *, seed: int = 0) -> list[RangeQuery]:
    """Queries split into ``MAX_EXP + 1`` groups with fractions
    2^0..2^-MAX_EXP.

    The paper uses i in [0, 9] at n = 1M; at reproduction scale the
    fractions stop at 2^-8 so the smallest ranges still hold >= k objects.
    """
    g = np.random.default_rng(seed)
    out = []
    for q in range(nq):
        i = q % (MAX_EXP + 1)
        length = max(1, n >> i)
        out.append(RangeQuery(q, *_random_range(n, length, g)))
    return out


def shared_range_workload(n: int, nq: int, *,
                          seed: int = 0) -> list[RangeQuery]:
    """Mixed fractions but only ``SHARED_RANGES`` distinct ranges
    (Figure 4).

    Group ``j`` (fraction ``2^-(j mod (MAX_EXP+1))``) shares one random
    range across its queries, so Oracle-HNSW builds ``SHARED_RANGES``
    graphs.
    """
    g = np.random.default_rng(seed)
    ranges = [
        _random_range(n, max(1, n >> (j % (MAX_EXP + 1))), g)
        for j in range(SHARED_RANGES)
    ]
    return [RangeQuery(q, *ranges[q % SHARED_RANGES]) for q in range(nq)]


def multiattr_workload(n: int, nq: int, *,
                       seed: int = 0) -> list[RangeQuery]:
    """Conjunctive two-attribute workload (Figure 5): each attribute gets
    an independent random range of expected fraction
    ``2^-MULTIATTR_FRAC_EXP``."""
    g = np.random.default_rng(seed + 99)
    length = max(1, n >> MULTIATTR_FRAC_EXP)
    out = []
    for q in range(nq):
        lo1, hi1 = _random_range(n, length, g)
        lo2, hi2 = _random_range(n, length, g)
        out.append(RangeQuery(q, lo1, hi1, lo2, hi2))
    return out
