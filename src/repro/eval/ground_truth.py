"""Exact RFANN ground truth.

The exact top-k in-range neighbors per query, computed two ways:

* :func:`exact_rfann_np` — numpy brute force over a rank slice (the
  per-query kernel, also used inside tests);
* :func:`ground_truth_spark` — the same answers as one Spark job: each
  query is a task of :func:`~repro.core.tasks.run_tasks`, with the
  vector matrix and the query vectors in the function's closure. This is
  the pipeline benchmarks use; a test cross-checks the in-range argmin
  against a DuckDB SQL formulation via the test-only oracle
  ``tests/_duckdb_oracle.py``.

Ids everywhere are 1-based attribute-1 ranks.
"""
from __future__ import annotations

import numpy as np

from repro.core.tasks import run_tasks
from repro.eval.workloads import RangeQuery


def exact_rfann_np(
    vectors: np.ndarray,
    q: np.ndarray,
    lo: int,
    hi: int,
    k: int,
    attr2_rank: np.ndarray | None = None,
    range2: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact in-range top-k: (ranks, squared distances), nearest first."""
    lo = max(1, lo)
    hi = min(len(vectors), hi)
    if lo > hi:
        return np.empty(0, dtype=np.int64), np.empty(0)
    sl = vectors[lo - 1 : hi]
    ranks = np.arange(lo, hi + 1, dtype=np.int64)
    if range2 is not None:
        assert attr2_rank is not None
        a2 = attr2_rank[lo - 1 : hi]
        m = (a2 >= range2[0]) & (a2 <= range2[1])
        sl, ranks = sl[m], ranks[m]
    if len(sl) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    d = sl - q
    dist = np.einsum("ij,ij->i", d, d)
    order = np.argsort(dist, kind="stable")[:k]
    return ranks[order], dist[order]


def ground_truth_spark(
    spark,
    vectors: np.ndarray,
    queries: list[RangeQuery],
    qvecs: np.ndarray,
    *,
    k: int,
    attr2_rank: np.ndarray | None = None,
) -> dict[int, np.ndarray]:
    """Distributed exact ground truth: qid -> top-k ranks.

    One task per query ``(qid, lo, hi, lo2, hi2)``, sized by its range
    length; the vector matrix and the query vectors ride in the closure
    (a few MB at reproduction scale).
    """
    vec = np.ascontiguousarray(vectors, dtype=np.float32)
    qvecs = np.asarray(qvecs, dtype=np.float32)
    a2 = None if attr2_rank is None else np.asarray(attr2_rank)

    def one(qid: int, lo: int, hi: int, lo2: int | None,
            hi2: int | None) -> np.ndarray:
        r2 = None if lo2 is None else (lo2, hi2)
        return exact_rfann_np(vec, qvecs[qid % len(qvecs)], lo, hi, k,
                              attr2_rank=a2, range2=r2)[0]

    tasks = [(q.qid, q.lo, q.hi, q.lo2, q.hi2) for q in queries]
    sizes = [max(q.hi - q.lo + 1, 0) for q in queries]
    gt = run_tasks(spark, one, tasks, sizes)
    return {q.qid: r.astype(np.int64) for q, r in zip(queries, gt)}
