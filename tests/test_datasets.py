"""Tests for the synthetic dataset substitutes + Spark rank mapping."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.eval.datasets import (SPECS, generate_raw, load_dataset,
                                 rank_order_spark, table1_rows)
from tests._duckdb_oracle import assert_equivalent


@pytest.mark.parametrize("name", list(SPECS))
def test_generate_raw_shapes(name):
    raw, queries = generate_raw(name, n=128, nq=8, seed=1)
    d = SPECS[name][0]
    assert len(raw) == 128
    assert queries.shape == (8, d)
    assert len(raw["vector"].iloc[0]) == d
    has_attr2 = SPECS[name][3] is not None
    assert ("attr2" in raw.columns) == has_attr2


@pytest.mark.parametrize("name", list(SPECS))
def test_generate_raw_deterministic(name):
    a, qa = generate_raw(name, n=64, nq=4, seed=3)
    b, qb = generate_raw(name, n=64, nq=4, seed=3)
    assert a["attr"].equals(b["attr"])
    np.testing.assert_array_equal(qa, qb)


_DIGEST = """
import hashlib
import numpy as np
from repro.eval.datasets import SPECS, generate_raw
h = hashlib.sha256()
for name in SPECS:
    raw, queries = generate_raw(name, n=64, nq=4, seed=3)
    h.update(np.stack(raw["vector"].to_numpy()).tobytes())
    h.update(raw.drop(columns="vector").to_numpy().tobytes())
    h.update(queries.tobytes())
print(h.hexdigest())
"""


def test_generate_raw_same_in_every_process():
    """Python salts str hashes per process; the data must not depend on it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _DIGEST], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_load_dataset_sorted_and_aligned(spark):
    ds = load_dataset(spark, "ytaudio_lite", n=128, nq=8, seed=2)
    assert np.all(np.diff(ds.attr) >= 0)  # ascending attribute order
    assert ds.vectors.shape == (128, SPECS["ytaudio_lite"][0])
    assert ds.attr2_rank is not None
    assert sorted(ds.attr2_rank.tolist()) == list(range(1, 129))


def test_load_dataset_row_alignment(spark):
    """Row i of vectors must be the raw object with attr rank i+1."""
    ds = load_dataset(spark, "redcaps_lite", n=96, nq=4, seed=5)
    raw = ds.raw.sort_values(["attr", "id"]).reset_index(drop=True)
    np.testing.assert_allclose(ds.attr, raw["attr"].to_numpy())
    for i in (0, 50, 95):
        np.testing.assert_allclose(ds.vectors[i], raw["vector"].iloc[i])


def test_rank_mapping_matches_duckdb(spark):
    """The Spark Window rank mapping == DuckDB row_number (oracle)."""
    raw, _ = generate_raw("ytrgb_lite", n=100, nq=4, seed=7)
    ordered = rank_order_spark(spark, raw)
    got = spark.createDataFrame(ordered[["id", "rank", "attr2_rank"]])
    assert_equivalent(
        got,
        """
        SELECT id,
               ROW_NUMBER() OVER (ORDER BY attr, id) AS rank,
               ROW_NUMBER() OVER (ORDER BY attr2, id) AS attr2_rank
        FROM raw
        """,
        raw=raw.drop(columns=["vector"]),
    )


def test_duplicate_attrs_get_distinct_ranks(spark):
    """Heavy-tailed attrs have many duplicates; ranks stay dense."""
    ds = load_dataset(spark, "ytrgb_lite", n=200, nq=4, seed=9)
    assert len(np.unique(ds.attr)) < 200  # duplicates exist by design
    # ... and the rank ordering is a permutation regardless.
    assert ds.vectors.shape[0] == 200


def test_table1_rows_inventory():
    rows = table1_rows(4096, 50)
    assert len(rows) == 5
    assert {r["dataset"] for r in rows} == set(SPECS)
    wit = next(r for r in rows if r["dataset"] == "wit_lite")
    assert wit["dim"] == 96 and wit["n_objects"] == 4096


def test_dimensionality_ordering_preserved():
    """Paper: WIT > YT-Rgb > TripClick > Redcaps > YT-Audio in dim."""
    d = {name: SPECS[name][0] for name in SPECS}
    assert (
        d["wit_lite"] > d["ytrgb_lite"] > d["tripclick_lite"]
        > d["redcaps_lite"] > d["ytaudio_lite"]
    )
