"""Integration tests for the experiment drivers behind each table."""
import numpy as np
import pytest

from repro.eval.datasets import load_dataset
from repro.eval.experiments import (FIG2_WORKLOADS, METHODS, build_suite,
                                    default_config, make_workload, run_fig2,
                                    run_fig3, run_fig4, run_fig5, run_table2,
                                    run_table3)


@pytest.fixture(scope="module")
def tiny_suite(spark):
    ds = load_dataset(spark, "ytaudio_lite", n=256, nq=8, seed=4)
    cfg = default_config(256)
    cfg.update(m=8, ef=40, leaf_size=32, beams=[20, 80])
    return spark, build_suite(spark, ds, cfg)


def test_suite_has_all_methods(tiny_suite):
    _, suite = tiny_suite
    assert set(suite.indexes) == set(METHODS)
    assert set(suite.build_seconds) == set(METHODS)
    assert suite.hnsw_build_seconds > 0


def test_make_workload_kinds():
    for kind in FIG2_WORKLOADS:
        wl = make_workload(kind, 256, 12, seed=0)
        assert len(wl) == 12


def test_run_table2_shape(tiny_suite):
    _, suite = tiny_suite
    res = run_table2(suite)
    mb = res["footprint_mb"]
    assert set(mb) == set(METHODS) | {"raw vectors"}
    assert mb["SuperPostfiltering"] > mb["iRangeGraph"] > mb["raw vectors"]
    for name, index in suite.indexes.items():
        assert index.memory_bytes()["vectors"] == suite.dataset.vectors.nbytes, name


def test_run_table3_shape(tiny_suite):
    _, suite = tiny_suite
    res = run_table3(suite)
    assert res["irange_over_hnsw"] > 0
    assert res["seconds"]["Pre-filtering"] < 0.1


def test_run_fig2_structure_and_quality(tiny_suite):
    spark, suite = tiny_suite
    res = run_fig2(spark, suite, nq=8, seed=1)
    assert set(res["workloads"]) == set(FIG2_WORKLOADS)
    mixed = res["workloads"]["mixed"]
    assert set(mixed) == set(METHODS)
    # iRangeGraph and Pre-filtering must reach 0.9 recall everywhere.
    for wname, per_method in res["workloads"].items():
        assert per_method["iRangeGraph"]["max_recall"] >= 0.9, wname
        assert per_method["Pre-filtering"]["max_recall"] == 1.0
    for row in mixed["iRangeGraph"]["curve"]:
        assert {"beam", "recall", "qps", "dists"} <= set(row)


def test_run_fig3_ablation_costs(tiny_suite):
    spark, suite = tiny_suite
    res = run_fig3(spark, suite, nq=8, seed=1)
    v = res["variants"]
    assert set(v) == {"iRangeGraph", "iRangeGraph-", "BasicSearch"}
    d_ir = v["iRangeGraph"]["dists@0.9"]
    d_bs = v["BasicSearch"]["dists@0.9"]
    if d_ir is not None and d_bs is not None:
        assert d_bs >= d_ir


def test_run_fig4_oracle_gap(tiny_suite):
    spark, suite = tiny_suite
    res = run_fig4(spark, suite, nq=8, n_ranges=4, seed=1)
    assert set(res["methods"]) == {"iRangeGraph", "Oracle-HNSW"}
    assert res["oracle_build_seconds"] > 0
    assert res["oracle_index_mb"] > 0
    for m in res["methods"].values():
        assert m["curve"]


def test_run_fig5_multiattr(tiny_suite):
    spark, suite = tiny_suite
    res = run_fig5(spark, suite, nq=8, seed=1)
    assert set(res["methods"]) == {
        "iRangeGraph+", "iRangeGraph", "2DSegmentGraph", "Milvus",
        "Pre-filtering",
    }
    assert res["methods"]["Pre-filtering"]["max_recall"] == 1.0


def test_fig5_requires_second_attribute(spark):
    ds = load_dataset(spark, "wit_lite", n=128, nq=4, seed=4)
    cfg = default_config(128)
    cfg.update(m=8, ef=40, leaf_size=32, beams=[20])
    suite = build_suite(spark, ds, cfg)
    with pytest.raises(AssertionError):
        run_fig5(spark, suite, nq=4)
