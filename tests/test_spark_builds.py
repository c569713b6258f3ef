"""Tests for the distributed index builders (Spark dataflows)."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines._spark_build import build_subset_graphs
from repro.baselines.superpostfilter import SuperPostfilterIndex, window_layout
from repro.core.beam_search import top_k
from repro.core.hnsw import build_hnsw
from repro.core.irange_build import (build_irange_index,
                                     build_irange_index_local)
from tests.conftest import make_clustered


@pytest.fixture(scope="module")
def vec_df(spark):
    X, _ = make_clustered(256, 16, seed=21)
    pdf = pd.DataFrame(
        {"rank": np.arange(1, 257), "vector": [v.tolist() for v in X]}
    )
    return X, spark.createDataFrame(pdf)


def test_spark_build_equals_local(spark, vec_df):
    """The distributed bottom-up build is deterministic and identical to
    the driver-side reference implementation."""
    X, df = vec_df
    idx_s = build_irange_index(spark, df, m=8, ef=40, leaf_size=32)
    idx_l = build_irange_index_local(X, m=8, ef=40, leaf_size=32)
    assert len(idx_s.layer_adj) == len(idx_l.layer_adj)
    for a, b in zip(idx_s.layer_adj, idx_l.layer_adj):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(idx_s.vectors, X)


def _rank_df(spark, X, ranks):
    """``(rank, vector)`` rows in a shuffled order, which the build must
    put back in rank order."""
    order = np.random.default_rng(0).permutation(len(ranks))
    pdf = pd.DataFrame({"rank": ranks[order],
                        "vector": [X[i].tolist() for i in order]})
    return spark.createDataFrame(pdf, "rank long, vector array<float>")


@pytest.mark.parametrize("n, leaf", [(134, 16), (20, 32)])
def test_spark_build_equals_local_uneven_and_single_leaf(spark, n, leaf):
    """n=134, leaf 16 puts leaves on two layers, so subtree tasks differ
    in depth and their blocks pad the rows of higher leaves; n <= leaf is
    one leaf. A beam of 4 keeps the case-2 searches far from exhaustive."""
    X, _ = make_clustered(n, 16, seed=8)
    idx_s = build_irange_index(spark, _rank_df(spark, X, np.arange(1, n + 1)),
                               m=6, ef=4, leaf_size=leaf)
    idx_l = build_irange_index_local(X, m=6, ef=4, leaf_size=leaf)
    assert len(idx_s.layer_adj) == len(idx_l.layer_adj)
    for a, b in zip(idx_s.layer_adj, idx_l.layer_adj):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "ranks", [np.arange(2, 42), np.delete(np.arange(1, 42), 17)],
    ids=["shifted", "one_missing"],
)
def test_spark_build_rejects_ranks_not_dense(spark, ranks):
    X, _ = make_clustered(len(ranks), 8, seed=24)
    with pytest.raises(ValueError, match="dense"):
        build_irange_index(spark, _rank_df(spark, X, ranks), m=4, ef=10,
                           leaf_size=16)


def test_spark_build_searches_well(spark, vec_df):
    X, df = vec_df
    idx = build_irange_index(spark, df, m=8, ef=40, leaf_size=32)
    _, Q = make_clustered(256, 16, seed=21)
    from repro.eval.ground_truth import exact_rfann_np

    hits = tot = 0
    for q in Q[:8]:
        gt, _ = exact_rfann_np(X, q, 40, 220, 10)
        res = idx.search(q, 40, 220, beam=60, k=10)
        hits += len(set(res.tolist()) & set(gt.tolist()))
        tot += len(gt)
    assert hits / tot >= 0.85


def _assert_same_graphs(got, want):
    assert list(got) == list(want)
    for gid in want:
        assert (got[gid].lo, got[gid].hi) == (want[gid].lo, want[gid].hi)
        np.testing.assert_array_equal(got[gid].adj, want[gid].adj)
        assert got[gid].entry == want[gid].entry


def test_subset_graphs_spark_equals_driver(spark):
    X, _ = make_clustered(192, 8, seed=22)
    intervals = {0: (1, 64), 1: (65, 128), 2: (129, 192)}
    via_spark = build_subset_graphs(spark, X, intervals, m=6, ef=30)
    via_driver = build_subset_graphs(None, X, intervals, m=6, ef=30)
    assert list(via_driver) == list(intervals)
    _assert_same_graphs(via_spark, via_driver)


def test_subset_graphs_spark_one_stage_few_tasks(spark):
    """Intervals of unequal sizes (SuperPostfiltering windows) build in
    one stage of at most defaultParallelism tasks, and every graph comes
    back under its gid."""
    X, _ = make_clustered(192, 8, seed=25)
    intervals = dict(enumerate(window_layout(192, 16)))
    sc = spark.sparkContext
    sc.setJobGroup("subset-graphs-test", "subset graphs")
    try:
        via_spark = build_subset_graphs(spark, X, intervals, m=6, ef=30)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    st = sc.statusTracker()
    tasks = [st.getStageInfo(s).numTasks
             for job in st.getJobIdsForGroup("subset-graphs-test")
             for s in st.getJobInfo(job).stageIds]
    assert len(tasks) == 1 and tasks[0] <= sc.defaultParallelism
    _assert_same_graphs(via_spark,
                        build_subset_graphs(None, X, intervals, m=6, ef=30))


def test_subset_graph_search_global_ranks(spark):
    """A graph over ranks [33, 96] scores only its own nodes, in global
    0-based ids; post-filtering them keeps a narrower range."""
    X, Q = make_clustered(128, 8, seed=23)
    g = build_subset_graphs(None, X, {0: (33, 96)}, m=6, ef=30)[0]
    ids, dists = g.search(Q[0], beam=40)
    assert np.all((ids >= 32) & (ids <= 95))
    np.testing.assert_allclose(dists, ((X[ids] - Q[0]) ** 2).sum(1),
                               rtol=1e-5)
    res = top_k(ids, dists, 5, keep=lambda i: (i >= 49) & (i <= 59)) + 1
    assert len(res) and np.all((res >= 50) & (res <= 60))


def test_subset_graphs_share_vectors_and_equal_slice_builds():
    """Every window graph reads the dataset array itself, not a copy, and
    its adjacency is ``build_hnsw`` on the window's slice, in the
    ``(0, gid)`` insertion order, shifted to global ids."""
    X, _ = make_clustered(192, 8, seed=27)
    idx = SuperPostfilterIndex(X, m=6, ef=30, min_window=32)
    for gid, g in idx.graphs.items():
        lo, hi = idx.windows[gid]
        assert (g.lo, g.hi) == (lo, hi)
        assert g.vectors is idx.vectors and np.shares_memory(g.vectors, X)
        want = build_hnsw(
            X[lo - 1 : hi], m=6, ef_construction=30,
            order=np.random.default_rng((0, gid)).permutation(hi - lo + 1))
        np.testing.assert_array_equal(
            g.adj, np.where(want.adj >= 0, want.adj + lo - 1, -1))
        assert g.entry == want.entry + lo - 1


def _jobs(sc, group, fn):
    """Run ``fn`` in job group ``group``; return its result and job count."""
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


def test_spark_build_one_job_for_subtrees_then_one_per_layer(spark):
    """The layers at and below the split layer (the shallowest with
    defaultParallelism segments) build as one job of subtree tasks, so
    the build runs 1 + split jobs after loading the vectors. The tree has
    a layer below the split, whatever defaultParallelism is."""
    sc = spark.sparkContext
    width = 1 << (sc.defaultParallelism - 1).bit_length()  # >= P, power of 2
    leaf = 4
    n = 2 * width * leaf
    split = width.bit_length() - 1
    X, _ = make_clustered(n, 8, seed=26)
    df = _rank_df(spark, X, np.arange(1, n + 1))
    _, load = _jobs(sc, "irange-load-test",
                    lambda: df.select("rank", "vector").toPandas())
    idx, jobs = _jobs(sc, "irange-build-test", lambda: build_irange_index(
        spark, df, m=4, ef=8, leaf_size=leaf))
    assert idx.tree.num_layers == split + 2
    assert len(idx.tree.segments_at(split)) >= sc.defaultParallelism
    assert jobs == load + 1 + split
    want = build_irange_index_local(X, m=4, ef=8, leaf_size=leaf)
    for a, b in zip(idx.layer_adj, want.layer_adj):
        np.testing.assert_array_equal(a, b)
