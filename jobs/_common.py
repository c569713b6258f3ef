"""Shared plumbing for the spark-submit job entrypoints.

Each job is ``python jobs/<name>.py [--n 4096 --nq 40 ...]`` (or
``spark-submit jobs/<name>.py ...``); it obtains a SparkSession the same
way ``conftest.py`` does, runs one experiment from
``repro.eval.experiments`` and writes ``results/<name>.json`` (or
``$REPRO_RESULTS_DIR/<name>.json``) plus a printed table.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# ``REPRO_RESULTS_DIR`` redirects every ``dump`` (tests point it at a
# temporary directory so they never overwrite the committed results).
RESULTS_DIR = Path(
    os.environ.get("REPRO_RESULTS_DIR")
    or Path(__file__).resolve().parent.parent / "results"
)


def get_spark():
    """SparkSession mirroring conftest.py's settings (works standalone
    with plain ``python`` and under ``spark-submit``)."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("repro-job")
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def arg_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--n", type=int, default=4096, help="objects per dataset")
    p.add_argument("--nq", type=int, default=40, help="queries per workload")
    p.add_argument(
        "--datasets", nargs="*", default=None,
        help="dataset names (default: all five substitutes)",
    )
    p.add_argument("--seed", type=int, default=7)
    return p


def dump(name: str, payload) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{name}.json"
    out.write_text(json.dumps(payload, indent=2, default=_jsonable))
    print(f"[{name}] wrote {out}", file=sys.stderr)
    return out


def _jsonable(x):
    import numpy as np

    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def print_matrix(title: str, rows: dict[str, dict[str, object]],
                 fmt: str = "{:.3g}") -> None:
    """Print a dict-of-dicts as an aligned text table."""
    cols = sorted({c for r in rows.values() for c in r})
    print(f"\n== {title} ==")
    header = "{:24s}".format("") + "".join(f"{c:>16s}" for c in cols)
    print(header)
    for rname, r in rows.items():
        cells = []
        for c in cols:
            v = r.get(c)
            if v is None:
                cells.append(f"{'—':>16s}")
            elif isinstance(v, (int, float)):
                cells.append(f"{fmt.format(v):>16s}")
            else:
                cells.append(f"{str(v):>16s}")
        print(f"{rname:24s}" + "".join(cells))
