"""Exact RFANN ground truth.

The exact top-k in-range neighbors per query, computed two ways:

* :func:`exact_rfann_np` — numpy brute force over a rank slice (the
  per-query kernel, also used inside tests);
* :func:`ground_truth_spark` — the same answers as a Spark dataflow:
  queries as a DataFrame, ``mapInPandas`` over query batches scoring the
  (closure-captured) vector matrix. This is the pipeline benchmarks use;
  a test cross-checks it against a DuckDB SQL formulation via the
  test-only oracle ``tests/_duckdb_oracle.py``.

Ids everywhere are 1-based attribute-1 ranks.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

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


def queries_to_pdf(queries: list[RangeQuery], qvecs: np.ndarray) -> pd.DataFrame:
    """Materialize a workload as a pandas frame (one row per query)."""
    return pd.DataFrame(
        {
            "qid": [q.qid for q in queries],
            "lo": [q.lo for q in queries],
            "hi": [q.hi for q in queries],
            "lo2": [q.lo2 if q.lo2 is not None else -1 for q in queries],
            "hi2": [q.hi2 if q.hi2 is not None else -1 for q in queries],
            "qvec": [qvecs[q.qid % len(qvecs)].tolist() for q in queries],
        }
    )


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

    One ``mapInPandas`` pass; the vector matrix rides into executors via
    closure capture (a few MB at reproduction scale).
    """
    vec = np.ascontiguousarray(vectors, dtype=np.float32)
    a2 = None if attr2_rank is None else np.asarray(attr2_rank)

    def batch(frames):
        for pdf in frames:
            rows = []
            for _, row in pdf.iterrows():
                qv = np.asarray(row["qvec"], dtype=np.float32)
                r2 = (
                    (int(row["lo2"]), int(row["hi2"]))
                    if int(row["lo2"]) >= 0
                    else None
                )
                ranks, _ = exact_rfann_np(
                    vec, qv, int(row["lo"]), int(row["hi"]), k,
                    attr2_rank=a2, range2=r2,
                )
                rows.append(
                    {"qid": int(row["qid"]), "gt": ranks.astype(np.int64).tolist()}
                )
            yield pd.DataFrame(rows, columns=["qid", "gt"])

    qdf = spark.createDataFrame(queries_to_pdf(queries, qvecs))
    out = qdf.mapInPandas(batch, schema="qid long, gt array<long>").toPandas()
    return {
        int(r.qid): np.asarray(r.gt, dtype=np.int64)
        for r in out.itertuples()
    }
