"""Seeded inputs of the RFANN benchmark and their exact answers.

Every vector, range and attribute-2 rank a run feeds the program comes
from the workload seed, through numpy generators keyed by ``(seed, stream)``.
Nothing here calls ``repro.eval``: its dataset generator seeds with the
salted ``hash(name)``, which differs between processes.

The data has the ``redcaps_lite`` shape: a 24-cluster Gaussian mixture in
32 dimensions with noise 0.35. Row ``i`` is the object with attribute-1
rank ``i + 1``; after rank mapping the attribute distribution does not
matter (paper Section 2.2). Query vectors are held out from the same
mixture, so every workload with the same seed shares one dataset.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

N = 512
DIM = 32
CLUSTERS = 24
NOISE = 0.35
# 6 range-fraction groups x 168 queries: each beam gets >= 1000 latency
# samples per pass, enough for a p99 with ten samples beyond it.
NQ = 1008
K = 10
# Index parameters of DESIGN.md. With N = 512 and leaf 64 the segment
# tree has 4 layers (0 = root .. 3 = leaves).
M, EF, LEAF = 16, 100, 64
# Fractions 2^0 .. 2^-5: the smallest range holds 16 >= K objects.
MIXED_EXPS = 6
# Conjunctive ranges of fraction 2^-2 on each attribute (paper Fig. 5).
CONJ_EXP = 2


@dataclass(frozen=True)
class Inputs:
    vectors: np.ndarray  # (N, DIM) float32 in attribute-1 rank order
    queries: np.ndarray  # (NQ, DIM) float32
    ranges: np.ndarray  # (NQ, 4) int64: lo1, hi1, lo2, hi2, 1-based inclusive
    attr2_rank: np.ndarray  # (N,) int64: 1-based attribute-2 rank of each row

    def digest(self) -> str:
        """Short sha256 of every generated array, to show two runs used
        identical data."""
        h = hashlib.sha256()
        for a in (self.vectors, self.queries, self.ranges, self.attr2_rank):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()[:16]


def _range(g: np.random.Generator, length: int) -> tuple[int, int]:
    lo = int(g.integers(1, N - length + 2))
    return lo, lo + length - 1


def make_inputs(workload: str, seed: int) -> Inputs:
    """The dataset for ``seed`` plus the query ranges of ``workload``.

    ``mixed``: attribute-1 ranges of fraction ``2^-(i mod 6)`` at random
    locations. ``multiattr``: fraction ``2^-2`` on both attributes.
    ``build``: the whole range, i.e. unfiltered search.
    """
    g = np.random.default_rng([seed, 0])
    centers = g.normal(0.0, 1.0, (CLUSTERS, DIM))
    assign = g.integers(0, CLUSTERS, N + NQ)
    pts = centers[assign] + NOISE * g.normal(0.0, 1.0, (N + NQ, DIM))
    pts = pts.astype(np.float32)
    attr2_rank = np.random.default_rng([seed, 1]).permutation(N) + 1

    gr = np.random.default_rng([seed, 2])
    ranges = np.empty((NQ, 4), dtype=np.int64)
    for i in range(NQ):
        if workload == "mixed":
            ranges[i] = (*_range(gr, N >> (i % MIXED_EXPS)), 1, N)
        elif workload == "multiattr":
            ranges[i] = (*_range(gr, N >> CONJ_EXP), *_range(gr, N >> CONJ_EXP))
        elif workload == "build":
            ranges[i] = (1, N, 1, N)
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return Inputs(
        vectors=np.ascontiguousarray(pts[:N]),
        queries=np.ascontiguousarray(pts[N:]),
        ranges=ranges,
        attr2_rank=attr2_rank.astype(np.int64),
    )


def exact_answers(inp: Inputs, k: int = K) -> list[np.ndarray]:
    """Exact top-``k`` 1-based ranks per query, by numpy brute force in
    float64. An entry is shorter than ``k`` only when fewer objects
    satisfy the query's ranges."""
    vecs = inp.vectors.astype(np.float64)
    out = []
    for q, (lo1, hi1, lo2, hi2) in zip(inp.queries, inp.ranges):
        ids = np.arange(lo1 - 1, hi1)
        r2 = inp.attr2_rank[ids]
        ids = ids[(r2 >= lo2) & (r2 <= hi2)]
        diff = vecs[ids] - q.astype(np.float64)
        d = np.einsum("ij,ij->i", diff, diff)
        out.append(ids[np.argsort(d, kind="stable")[:k]] + 1)
    return out
