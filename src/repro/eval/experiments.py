"""Experiment drivers behind every table/figure reproduction.

One function per paper artifact (Tables 2–3, Figures 2–5, scalability),
called by ``jobs/run_all.py``. Everything returns plain dicts / lists so
results can be dumped to ``results/run_all.json``, rendered into
EXPERIMENTS.md and checked by ``tests/test_claims.py``.

Method registry: the keys below are the method names used in every
table, matching the paper's Figure-2 lineup.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.baselines.basic_strategies import PrefilterIndex
from repro.baselines.filtered_diskann import (FilteredVamanaIndex,
                                              StitchedVamanaIndex)
from repro.baselines.milvus_like import MilvusLikeIndex
from repro.baselines.multi_attr_baselines import (ConjunctivePostFilter,
                                                  ConjunctivePrefilter)
from repro.baselines.oracle_hnsw import OracleHnswIndex
from repro.baselines.serf_like import SerfLikeIndex
from repro.baselines.superpostfilter import SuperPostfilterIndex
from repro.core.hnsw import build_hnsw
from repro.core.irange_build import (build_irange_index,
                                     build_irange_index_local)
from repro.core.irange_graph import BasicSearchIndex, IRangeGraphIndex
from repro.core.multi_attr import MultiAttrIndex
from repro.eval.datasets import RFDataset, load_dataset
from repro.eval.ground_truth import ground_truth_spark
from repro.eval.harness import (DEFAULT_BEAMS, dists_at_recall, max_recall,
                                qps_at_recall, run_curve)
from repro.eval.memory import footprint_mb
from repro.eval.workloads import (RangeQuery, fixed_workload, mixed_workload,
                                  multiattr_workload, shared_range_workload)

METHODS = (
    "iRangeGraph",
    "SuperPostfiltering",
    "Milvus",
    "Pre-filtering",
    "2DSegmentGraph",
    "FilteredVamana",
    "StitchedVamana",
)

# Workloads of Figure 2: name -> range-fraction exponent (None = mixed).
FIG2_WORKLOADS = {"mixed": None, "large": 2, "moderate": 5, "small": 8}


@dataclass
class BuiltSuite:
    """All single-attribute indexes for one dataset + build bookkeeping."""

    dataset: RFDataset
    indexes: dict[str, object]
    build_seconds: dict[str, float]
    hnsw_build_seconds: float  # reference cost (Theorem 3.1 check)
    # Driver-local iRangeGraph build time (no Spark job overhead) — the
    # clean numerator for the paper's "<= 3x HNSW" indexing-time claim.
    irange_local_seconds: float
    config: dict = field(default_factory=dict)


def default_config(n: int) -> dict:
    """Paper parameters scaled to reproduction size (see DESIGN.md)."""
    return {
        "m": 16,
        "ef": 100,
        "leaf_size": 64,
        "n_buckets": 10,
        "min_window": 64,
        "n_labels": 10,
        "k": 10,
        "beams": list(DEFAULT_BEAMS),
        "n": n,
    }


def build_irange_spark(spark, X: np.ndarray,
                       cfg: dict) -> tuple[IRangeGraphIndex, float]:
    """Spark iRangeGraph build over ``X`` (row ``i`` has rank ``i + 1``)
    and its seconds, timed from the moment the vectors are a DataFrame."""
    vec_df = spark.createDataFrame(pd.DataFrame(
        {"rank": np.arange(1, len(X) + 1), "vector": [v.tolist() for v in X]}
    ))
    t0 = time.perf_counter()
    idx = build_irange_index(spark, vec_df, m=cfg["m"], ef=cfg["ef"],
                             leaf_size=cfg["leaf_size"])
    return idx, time.perf_counter() - t0


def build_suite(spark, ds: RFDataset, cfg: dict | None = None) -> BuiltSuite:
    """Build every Figure-2 method's index, timing each build.

    Also times a driver-only iRangeGraph build (identical output; no
    Spark job latency: the Spark build runs one job for the subtrees of
    the shallowest layer with ``defaultParallelism`` segments and one per
    layer above it) so the Theorem-3.1 build-cost ratio is not inflated
    by scheduler overhead.
    """
    cfg = cfg or default_config(ds.n)
    m, ef = cfg["m"], cfg["ef"]
    X = ds.vectors
    times: dict[str, float] = {}
    idx: dict[str, object] = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        times[name] = time.perf_counter() - t0
        return out

    idx["iRangeGraph"], times["iRangeGraph"] = build_irange_spark(
        spark, X, cfg)
    idx["SuperPostfiltering"] = timed(
        "SuperPostfiltering",
        lambda: SuperPostfilterIndex(
            X, m=m, ef=ef, min_window=cfg["min_window"], spark=spark
        ),
    )
    idx["Milvus"] = timed(
        "Milvus",
        lambda: MilvusLikeIndex(
            X, n_buckets=cfg["n_buckets"], m=m, ef=ef, spark=spark
        ),
    )
    idx["Pre-filtering"] = timed("Pre-filtering", lambda: PrefilterIndex(X))
    idx["2DSegmentGraph"] = timed(
        "2DSegmentGraph", lambda: SerfLikeIndex(X, m=m, ef=ef)
    )
    idx["FilteredVamana"] = timed(
        "FilteredVamana",
        lambda: FilteredVamanaIndex(X, n_labels=cfg["n_labels"], m=m, ef=ef),
    )
    idx["StitchedVamana"] = timed(
        "StitchedVamana",
        lambda: StitchedVamanaIndex(
            X, n_labels=cfg["n_labels"], m=m, ef=ef, spark=spark
        ),
    )
    # Reference: a single whole-dataset HNSW (for the <= 3x claim).
    t0 = time.perf_counter()
    build_hnsw(X, m=m, ef_construction=ef)
    hnsw_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    build_irange_index_local(X, m=m, ef=ef, leaf_size=cfg["leaf_size"])
    local_s = time.perf_counter() - t0
    return BuiltSuite(
        dataset=ds, indexes=idx, build_seconds=times,
        hnsw_build_seconds=hnsw_s, irange_local_seconds=local_s, config=cfg,
    )


def search_fn(index, **kw) -> callable:
    """Adapt an index to the harness signature (qv, query, beam, k, c).

    Single-attribute queries call ``index.search(qv, lo, hi, ...)``;
    conjunctive ones (``q.lo2`` set) call ``index.search(qv, (lo, hi),
    (lo2, hi2), ..., seed=q.qid)``. ``kw`` is passed through (e.g.
    ``skip_layers=False`` or a multi-attribute ``mode``).
    """

    def fn(qv: np.ndarray, q: RangeQuery, beam: int, k: int, counter):
        if q.lo2 is None:
            return index.search(qv, q.lo, q.hi, beam=beam, k=k,
                                counter=counter, **kw)
        return index.search(qv, (q.lo, q.hi), (q.lo2, q.hi2), beam=beam,
                            k=k, counter=counter, seed=q.qid, **kw)

    return fn


def make_workload(name: str, n: int, nq: int, *,
                  seed: int = 0) -> list[RangeQuery]:
    exp = FIG2_WORKLOADS[name]
    if exp is None:
        return mixed_workload(n, nq, seed=seed)
    return fixed_workload(n, nq, exp, seed=seed)


def run_curves(spark, suite: BuiltSuite, wl: list[RangeQuery],
               fns: dict[str, callable]) -> dict:
    """Exact ground truth for ``wl``, then one beam sweep per search
    function: ``{name: {curve, qps@0.9, dists@0.9, max_recall}}``."""
    ds, cfg = suite.dataset, suite.config
    k, beams = cfg["k"], tuple(cfg["beams"])
    gt = ground_truth_spark(spark, ds.vectors, wl, ds.queries, k=k,
                            attr2_rank=ds.attr2_rank)
    out = {}
    for name, fn in fns.items():
        rows = run_curve(fn, wl, ds.queries, gt, k=k, beams=beams)
        out[name] = {
            "curve": rows,
            "qps@0.9": qps_at_recall(rows),
            "dists@0.9": dists_at_recall(rows),
            "max_recall": max_recall(rows),
        }
    return out


# ------------------------------------------------------------------ figure 2
def run_fig2(
    spark, suite: BuiltSuite, *, nq: int = 40, seed: int = 0
) -> dict:
    """qps-recall curves for every method on the 4 Figure-2 workloads."""
    ds = suite.dataset
    fns = {name: search_fn(index) for name, index in suite.indexes.items()}
    return {"dataset": ds.name, "workloads": {
        wname: run_curves(spark, suite,
                          make_workload(wname, ds.n, nq, seed=seed), fns)
        for wname in FIG2_WORKLOADS
    }}


# ------------------------------------------------------------------ table 2
def run_table2(suite: BuiltSuite) -> dict:
    """Memory footprint (MiB): vectors + index per method."""
    ds = suite.dataset
    rows = {"raw vectors": ds.vectors.nbytes / (1 << 20)}
    for name, index in suite.indexes.items():
        rows[name] = footprint_mb(index.memory_bytes())
    return {"dataset": ds.name, "footprint_mb": rows}


# ------------------------------------------------------------------ table 3
def run_table3(suite: BuiltSuite) -> dict:
    """Indexing time (s) per method + the HNSW reference build."""
    return {
        "dataset": suite.dataset.name,
        "seconds": dict(suite.build_seconds),
        "hnsw_reference_seconds": suite.hnsw_build_seconds,
        "irange_over_hnsw": (
            suite.build_seconds["iRangeGraph"] / suite.hnsw_build_seconds
        ),
        "irange_local_seconds": suite.irange_local_seconds,
        "irange_local_over_hnsw": (
            suite.irange_local_seconds / suite.hnsw_build_seconds
        ),
    }


# ------------------------------------------------------------------ figure 3
def run_fig3(
    spark, suite: BuiltSuite, *, nq: int = 40, seed: int = 0
) -> dict:
    """Ablation: iRangeGraph vs iRangeGraph- (no skip) vs BasicSearch."""
    ds = suite.dataset
    ir: IRangeGraphIndex = suite.indexes["iRangeGraph"]
    variants = {
        "iRangeGraph": search_fn(ir),
        "iRangeGraph-": search_fn(ir, skip_layers=False),
        "BasicSearch": search_fn(BasicSearchIndex(ir)),
    }
    wl = make_workload("mixed", ds.n, nq, seed=seed)
    return {"dataset": ds.name,
            "variants": run_curves(spark, suite, wl, variants)}


# ------------------------------------------------------------------ figure 4
def run_fig4(
    spark, suite: BuiltSuite, *, nq: int = 40, seed: int = 0
) -> dict:
    """Gap to Oracle-HNSW on a shared-range mixed workload, and the
    oracle's index size (MiB) for the workload's few distinct ranges."""
    ds, cfg = suite.dataset, suite.config
    wl = shared_range_workload(ds.n, nq, seed=seed)
    t0 = time.perf_counter()
    oracle = OracleHnswIndex(
        ds.vectors, [(q.lo, q.hi) for q in wl], m=cfg["m"], ef=cfg["ef"],
        spark=spark,
    )
    oracle_build_s = time.perf_counter() - t0
    methods = {
        "iRangeGraph": search_fn(suite.indexes["iRangeGraph"]),
        "Oracle-HNSW": search_fn(oracle),
    }
    return {"dataset": ds.name, "oracle_build_seconds": oracle_build_s,
            "oracle_index_mb": oracle.memory_bytes()["index"] / (1 << 20),
            "methods": run_curves(spark, suite, wl, methods)}


# ------------------------------------------------------------------ figure 5
def run_fig5(
    spark, suite: BuiltSuite, *, nq: int = 40, seed: int = 0
) -> dict:
    """Multi-attribute RFANN (expected fraction 2^-2 per attribute):
    iRangeGraph(+) vs the extendable baselines."""
    ds = suite.dataset
    assert ds.attr2_rank is not None, f"{ds.name} has no second attribute"
    multi = MultiAttrIndex(suite.indexes["iRangeGraph"], ds.attr2_rank)
    methods = {
        "iRangeGraph+": search_fn(multi, mode="prob"),
        "iRangeGraph": search_fn(multi, mode="post"),
        "2DSegmentGraph": search_fn(
            ConjunctivePostFilter(suite.indexes["2DSegmentGraph"],
                                  ds.attr2_rank)
        ),
        "Milvus": search_fn(
            ConjunctivePostFilter(suite.indexes["Milvus"], ds.attr2_rank)
        ),
        "Pre-filtering": search_fn(
            ConjunctivePrefilter(ds.vectors, ds.attr2_rank)
        ),
    }
    wl = multiattr_workload(ds.n, nq, seed=seed)
    return {"dataset": ds.name,
            "methods": run_curves(spark, suite, wl, methods)}


# --------------------------------------------------------------- scalability
def run_scalability(
    spark, name: str, sizes: list[int], *, nq: int = 20, seed: int = 7
) -> list[dict]:
    """Section 5.2.3 stand-in: index cost & search cost vs dataset size."""
    out = []
    for n in sizes:
        ds = load_dataset(spark, name, n=n, nq=nq, seed=seed)
        idx, build_s = build_irange_spark(spark, ds.vectors,
                                          default_config(n))
        wl = mixed_workload(n, nq, seed=seed)
        gt = ground_truth_spark(spark, ds.vectors, wl, ds.queries, k=10)
        rows = run_curve(search_fn(idx), wl, ds.queries, gt, k=10,
                         beams=(20, 80, 320))
        out.append(
            {
                "n": n,
                "build_seconds": build_s,
                "footprint_mb": footprint_mb(idx.memory_bytes()),
                "qps@0.9": qps_at_recall(rows),
                "dists@0.9": dists_at_recall(rows),
            }
        )
    return out
