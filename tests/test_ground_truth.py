"""Tests for exact RFANN ground truth: numpy vs Spark vs DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.eval.ground_truth import exact_rfann_np, ground_truth_spark
from repro.eval.workloads import RangeQuery, mixed_workload
from tests._duckdb_oracle import assert_equivalent


def test_exact_rfann_np_basic(small_data):
    X, Q = small_data
    ranks, dists = exact_rfann_np(X, Q[0], 10, 50, 5)
    assert len(ranks) == 5
    assert np.all((ranks >= 10) & (ranks <= 50))
    assert np.all(np.diff(dists) >= 0)
    # Brute-force cross-check on the slice.
    sl = X[9:50]
    ref = np.argsort(((sl - Q[0]) ** 2).sum(axis=1))[:5] + 10
    np.testing.assert_array_equal(ranks, ref)


def test_exact_rfann_np_short_range(small_data):
    X, Q = small_data
    ranks, _ = exact_rfann_np(X, Q[0], 100, 102, 10)
    assert sorted(ranks.tolist()) == [100, 101, 102]


def test_exact_rfann_np_empty(small_data):
    X, Q = small_data
    ranks, dists = exact_rfann_np(X, Q[0], 50, 40, 5)
    assert len(ranks) == 0 and len(dists) == 0


def test_exact_rfann_np_attr2_filter(small_data):
    X, Q = small_data
    a2 = np.arange(1, len(X) + 1)[::-1].copy()  # reversed ranks
    ranks, _ = exact_rfann_np(X, Q[0], 1, 256, 5, attr2_rank=a2,
                              range2=(1, 20))
    assert np.all(a2[ranks - 1] <= 20)


def test_ground_truth_spark_matches_np(spark, small_data):
    X, Q = small_data
    wl = mixed_workload(len(X), 12, seed=0)
    gt = ground_truth_spark(spark, X, wl, Q, k=7)
    for q in wl:
        ref, _ = exact_rfann_np(X, Q[q.qid % len(Q)], q.lo, q.hi, 7)
        np.testing.assert_array_equal(gt[q.qid], ref)


def test_ground_truth_spark_multiattr(spark, small_data):
    X, Q = small_data
    a2 = np.random.default_rng(1).permutation(len(X)) + 1
    wl = [RangeQuery(0, 20, 200, 30, 180), RangeQuery(1, 1, 256, 1, 64)]
    gt = ground_truth_spark(spark, X, wl, Q, k=5, attr2_rank=a2)
    for q in wl:
        ref, _ = exact_rfann_np(
            X, Q[q.qid], q.lo, q.hi, 5, attr2_rank=a2, range2=(q.lo2, q.hi2)
        )
        np.testing.assert_array_equal(gt[q.qid], ref)


def test_ground_truth_spark_edge_ranges(spark, small_data):
    """Ranges ``mixed_workload`` never draws: inverted, clamped to empty,
    shorter than k, and an attribute-2 range that matches nothing. Each
    empty or short result lands under its own qid."""
    X, Q = small_data
    n = len(X)
    a2 = np.random.default_rng(2).permutation(n) + 1
    wl = [RangeQuery(0, 50, 40), RangeQuery(1, n + 2, n + 5),
          RangeQuery(2, 100, 102), RangeQuery(3, 1, n, n + 1, n + 9),
          RangeQuery(4, 10, 200, 1, 128)]
    gt = ground_truth_spark(spark, X, wl, Q, k=5, attr2_rank=a2)
    assert [len(gt[q.qid]) for q in wl] == [0, 0, 3, 0, 5]
    for q in wl:
        r2 = None if q.lo2 is None else (q.lo2, q.hi2)
        ref, _ = exact_rfann_np(X, Q[q.qid], q.lo, q.hi, 5, attr2_rank=a2,
                                range2=r2)
        np.testing.assert_array_equal(gt[q.qid], ref)


def test_rfann_answer_matches_duckdb_argmin(spark, small_data):
    """Full relational cross-check: materialize the (query, object,
    distance) table, let DuckDB pick the in-range argmin per query, and
    compare with the Spark-side top-1 from the same base table."""
    from pyspark.sql import Window
    from pyspark.sql import functions as F

    X, Q = small_data
    wl = [RangeQuery(i, 30 + 10 * i, 200 + 5 * i) for i in range(4)]
    rows = []
    for q in wl:
        d = ((X - Q[q.qid]) ** 2).sum(axis=1)
        for rank in range(1, len(X) + 1):
            rows.append(
                {"qid": q.qid, "rank": rank, "dist": float(d[rank - 1]),
                 "lo": q.lo, "hi": q.hi}
            )
    dist_pdf = pd.DataFrame(rows)
    sdf = spark.createDataFrame(dist_pdf)
    w = Window.partitionBy("qid").orderBy("dist", "rank")
    got = (
        sdf.where((F.col("rank") >= F.col("lo")) & (F.col("rank") <= F.col("hi")))
        .withColumn("rn", F.row_number().over(w))
        .where(F.col("rn") == 1)
        .select("qid", F.col("rank").alias("nn_rank"))
    )
    assert_equivalent(
        got,
        """
        SELECT qid, ARG_MIN(rank, dist) AS nn_rank
        FROM dist WHERE rank BETWEEN lo AND hi GROUP BY qid
        """,
        dist=dist_pdf,
    )
    # ... and the numpy kernel agrees with both engines.
    for q in wl:
        ranks, _ = exact_rfann_np(X, Q[q.qid], q.lo, q.hi, 1)
        row = got.where(F.col("qid") == q.qid).collect()[0]
        assert int(row.nn_rank) == int(ranks[0])


def test_oracle_catches_wrong_result(spark, small_data):
    """The DuckDB oracle's self-check: an off-by-one Spark count of the
    in-range objects per query must fail the comparison."""
    from pyspark.sql import functions as F

    X, _ = small_data
    wl = mixed_workload(len(X), 8, seed=4)
    pdf = pd.DataFrame(
        [(q.qid, r) for q in wl for r in range(q.lo, q.hi + 1)],
        columns=["qid", "rank"],
    )
    wrong = (
        spark.createDataFrame(pdf)
        .groupBy("qid")
        .agg((F.count(F.lit(1)) + 1).alias("cnt"))  # off-by-one
    )
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong, "SELECT qid, COUNT(*) AS cnt FROM hits GROUP BY qid",
            hits=pdf,
        )
