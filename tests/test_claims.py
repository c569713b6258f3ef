"""The paper's claims, checked against the committed evaluation results.

Each test is one row of EXPERIMENTS.md's "Verdict summary" and reads
``results/run_all.json``, which ``python jobs/run_all.py --n 4096 --nq 40``
writes (seed 7, the default). Nothing here writes into ``results/``. A
claim the results do not reproduce keeps its test, marked
``xfail(strict=True)`` with the reason, so the mark has to go as soon as
regenerated results reproduce it.

Costs are compared in distance computations at 0.9 recall
(``dists@0.9``), the hardware-independent cost (EXPERIMENTS.md, "Reading
the numbers"); wall-clock qps enters only where a row claims it.
"""
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = json.loads((ROOT / "results" / "run_all.json").read_text())
CONFIG = RUN["config"]
DATASETS = list(RUN["table2"])
MULTI_DATASETS = list(RUN["fig5"])


def _cases(names, xfails: dict[str, str]) -> list:
    """``names`` as parameters, those in ``xfails`` marked as strict
    expected failures with the given reason."""
    return [pytest.param(n, marks=pytest.mark.xfail(strict=True,
                                                    reason=xfails[n]))
            if n in xfails else n for n in names]


def _dists(per_method: dict) -> dict[str, float]:
    """``dists@0.9`` of the methods that reach 0.9 recall."""
    return {m: r["dists@0.9"] for m, r in per_method.items()
            if r["dists@0.9"] is not None}


def test_results_config_is_the_one_experiments_md_cites():
    """n, nq and seed are the values EXPERIMENTS.md cites, and the
    results carry the commit and the data they came from."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    cited = re.search(r"run_all\.py --n (\d+) --nq (\d+)", text)
    seed = re.search(r"seed (\d+)", text)
    assert cited and seed
    assert (CONFIG["n"], CONFIG["nq"], CONFIG["seed"]) == (
        int(cited[1]), int(cited[2]), int(seed[1]))
    assert re.fullmatch(r"[0-9a-f]{40}", CONFIG["commit"])
    assert set(CONFIG["vectors_sha256"]) == set(DATASETS)


def test_results_come_from_todays_datasets(spark):
    """Each dataset ``load_dataset`` makes today has the vectors whose
    sha256 the results recorded."""
    from repro.eval.datasets import load_dataset

    for name, digest in CONFIG["vectors_sha256"].items():
        ds = load_dataset(spark, name, n=CONFIG["n"], nq=CONFIG["nq"],
                          seed=CONFIG["seed"])
        assert hashlib.sha256(
            ds.vectors.astype("<f4").tobytes()).hexdigest() == digest, name


@pytest.mark.parametrize("name", DATASETS)
def test_table2_memory_ordering(name):
    """SuperPostfiltering > iRangeGraph > 2DSegmentGraph > the label
    methods > Milvus > Pre-filtering = raw vectors."""
    mb = RUN["table2"][name]["footprint_mb"]
    labels = (mb["FilteredVamana"], mb["StitchedVamana"])
    assert mb["SuperPostfiltering"] > mb["iRangeGraph"] > mb["2DSegmentGraph"]
    assert mb["2DSegmentGraph"] > max(labels)
    assert min(labels) > mb["Milvus"] > mb["raw vectors"]
    assert mb["Pre-filtering"] == mb["raw vectors"]


@pytest.mark.parametrize("name", DATASETS)
def test_table3_prefilter_free_and_irange_a_small_multiple_of_hnsw(name):
    """Pre-filtering builds in no time and cheapest of all; the
    driver-local iRangeGraph build costs at most 3x one HNSW build (the
    paper's empirical Theorem 3.1 check); SuperPostfiltering builds
    slower than iRangeGraph."""
    t3 = RUN["table3"][name]
    sec = t3["seconds"]
    assert sec["Pre-filtering"] < 0.1
    assert sec["Pre-filtering"] < min(
        v for m, v in sec.items() if m != "Pre-filtering")
    assert t3["irange_local_over_hnsw"] <= 3
    assert sec["SuperPostfiltering"] > sec["iRangeGraph"]


@pytest.mark.parametrize("workload", ["mixed", "large", "moderate"])
@pytest.mark.parametrize("name", DATASETS)
def test_fig2_irange_lowest_cost_at_recall_09(name, workload):
    """On every workload where graph search runs, iRangeGraph reaches 0.9
    recall at fewer distances than every method that reaches it."""
    per = RUN["fig2"][name]["workloads"][workload]
    d = _dists(per)
    assert "iRangeGraph" in d
    assert all(d["iRangeGraph"] < v for m, v in d.items()
               if m != "iRangeGraph"), d


@pytest.mark.parametrize("name", DATASETS)
def test_fig2_restricted_graphs_fail(name):
    """FilteredVamana and StitchedVamana stay below 0.8 recall on the
    mixed and large workloads; 2DSegmentGraph stays below it on the small
    one, where at beam 160 it scores more than twice iRangeGraph's
    distances."""
    w = RUN["fig2"][name]["workloads"]
    for workload in ("mixed", "large"):
        for method in ("FilteredVamana", "StitchedVamana"):
            assert w[workload][method]["max_recall"] < 0.8, (workload, method)
    small = w["small"]
    assert small["2DSegmentGraph"]["max_recall"] < 0.8
    at160 = {m: next(r["dists"] for r in small[m]["curve"] if r["beam"] == 160)
             for m in ("2DSegmentGraph", "iRangeGraph")}
    assert at160["2DSegmentGraph"] > 2 * at160["iRangeGraph"]


@pytest.mark.parametrize("name", DATASETS)
def test_fig2_prefilter_optimal_for_small_fractions(name):
    """On 2^-8 ranges Pre-filtering has recall 1.0 at a cost of exactly
    the range length, and no method reaches 0.9 recall at any measured
    beam with fewer distances."""
    small = RUN["fig2"][name]["workloads"]["small"]
    length = CONFIG["n"] >> 8
    pre = small["Pre-filtering"]
    assert pre["max_recall"] == 1.0
    assert all(row["dists"] == length for row in pre["curve"])
    for method, r in small.items():
        assert all(row["dists"] >= length for row in r["curve"]
                   if row["recall"] >= 0.9), method


@pytest.mark.parametrize("name", _cases(DATASETS, {
    "tripclick_lite": "BasicSearch needs only 1.92x iRangeGraph's "
                      "distances at 0.9 recall",
    "ytaudio_lite": "BasicSearch needs only 1.78x iRangeGraph's distances "
                    "at 0.9 recall"}))
def test_fig3_basicsearch_costs_2_to_4x(name):
    """BasicSearch needs 2-4x iRangeGraph's distances at 0.9 recall."""
    v = RUN["fig3"][name]["variants"]
    ratio = v["BasicSearch"]["dists@0.9"] / v["iRangeGraph"]["dists@0.9"]
    assert 2 <= ratio <= 4


@pytest.mark.parametrize("name", DATASETS)
def test_fig3_layer_skipping_saves_time_not_quality(name):
    """Layer skipping raises qps@0.9 and leaves the search as good: at
    every beam recall within 0.01 and distances within 1% of the
    no-skip variant's."""
    v = RUN["fig3"][name]["variants"]
    assert v["iRangeGraph"]["qps@0.9"] > v["iRangeGraph-"]["qps@0.9"]
    for skip, noskip in zip(v["iRangeGraph"]["curve"],
                            v["iRangeGraph-"]["curve"]):
        assert skip["beam"] == noskip["beam"]
        assert abs(skip["recall"] - noskip["recall"]) <= 0.01
        assert skip["dists"] == pytest.approx(noskip["dists"], rel=0.01)


@pytest.mark.parametrize("name", DATASETS)
def test_fig4_oracle_within_2x_and_impractical(name):
    """Oracle-HNSW needs more than half iRangeGraph's distances at 0.9
    recall (the paper's "less than 2x"), and its graphs for just the
    workload's ten ranges already take more than a fifth of iRangeGraph's
    whole index."""
    f4 = RUN["fig4"][name]
    ms = f4["methods"]
    assert ms["iRangeGraph"]["dists@0.9"] < 2 * ms["Oracle-HNSW"]["dists@0.9"]
    mb = RUN["table2"][name]["footprint_mb"]
    assert f4["oracle_index_mb"] > 0.2 * (mb["iRangeGraph"] - mb["raw vectors"])


@pytest.mark.parametrize("name", _cases(MULTI_DATASETS, {
    "ytaudio_lite": "2DSegmentGraph needs only 1.77x the distances of "
                    "iRangeGraph with post-filtering"}))
def test_fig5_irange_beats_2dsegmentgraph_2x(name):
    """iRangeGraph (post-filtering on attribute 2) reaches 0.9 recall at
    less than half 2DSegmentGraph's distances."""
    d = _dists(RUN["fig5"][name]["methods"])
    assert d["2DSegmentGraph"] > 2 * d["iRangeGraph"]


@pytest.mark.parametrize("name", MULTI_DATASETS)
def test_fig5_irange_plus_saves_work_below_recall_1(name):
    """iRangeGraph+ needs fewer distances than iRangeGraph with
    post-filtering and scores fewer than the attribute-1 range holds,
    but never reaches recall 1.0; Pre-filtering does."""
    ms = RUN["fig5"][name]["methods"]
    d = _dists(ms)
    assert d["iRangeGraph+"] < d["iRangeGraph"]
    assert d["iRangeGraph+"] < CONFIG["n"] >> 2
    assert ms["iRangeGraph+"]["max_recall"] < 1.0
    assert ms["Pre-filtering"]["max_recall"] == 1.0


def test_scalability_moderate_build_sublinear_search():
    """redcaps_lite (d = 32) at n = 1024, 2048, 4096: the footprint is the
    vectors plus one (n, m) int32 adjacency per tree layer, 1 + log2(n /
    leaf) layers; each doubling of n grows the build no faster than
    n log n (with 25% slack for timing) and the search cost at 0.9 recall
    by less than 2x."""
    rows = RUN["scalability"]
    for r in rows:
        layers = 1 + math.log2(r["n"] / 64)
        assert r["footprint_mb"] * (1 << 20) == r["n"] * (32 + layers * 16) * 4
    for a, b in zip(rows, rows[1:]):
        nlogn = b["n"] * math.log2(b["n"]) / (a["n"] * math.log2(a["n"]))
        assert b["build_seconds"] / a["build_seconds"] <= 1.25 * nlogn
        assert b["dists@0.9"] / a["dists@0.9"] < 2
