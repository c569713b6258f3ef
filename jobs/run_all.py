"""Run the full evaluation: build each dataset's index suite once, then
produce every table/figure from it (Tables 1-3, Figures 2-5,
scalability) and write them to one file, ``results/run_all.json`` (or
``$REPRO_RESULTS_DIR/run_all.json``), plus a printed summary.

This is the entrypoint whose numbers populate EXPERIMENTS.md, whose
tables ``jobs/render_experiments.py`` then rewrites from the JSON:

    python jobs/run_all.py --n 4096 --nq 40
    python jobs/render_experiments.py

It obtains a SparkSession the same way ``conftest.py`` does, so it runs
with plain ``python`` and under ``spark-submit``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

# ``REPRO_RESULTS_DIR`` redirects ``dump`` (tests point it at a
# temporary directory so they never overwrite the committed results).
RESULTS_DIR = Path(
    os.environ.get("REPRO_RESULTS_DIR")
    or Path(__file__).resolve().parent.parent / "results"
)


def get_spark():
    """SparkSession mirroring conftest.py's settings."""
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
    p.add_argument("--skip-scalability", action="store_true")
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


def git_commit() -> str | None:
    """The checkout's ``HEAD`` commit, or None outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True, cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> None:
    args = arg_parser(__doc__).parse_args()
    spark = get_spark()
    from repro.eval.datasets import SPECS, load_dataset, table1_rows
    from repro.eval.experiments import (build_suite, run_fig2, run_fig3,
                                        run_fig4, run_fig5, run_scalability,
                                        run_table2, run_table3)

    names = args.datasets or list(SPECS)
    out = {
        "config": {"n": args.n, "nq": args.nq, "seed": args.seed,
                   "commit": git_commit(), "vectors_sha256": {}},
        "table1": table1_rows(args.n, args.nq),
        "table2": {}, "table3": {}, "fig2": {}, "fig3": {}, "fig4": {},
        "fig5": {},
    }
    for name in names:
        print(f"\n##### dataset {name} #####", file=sys.stderr)
        ds = load_dataset(spark, name, n=args.n, nq=args.nq, seed=args.seed)
        out["config"]["vectors_sha256"][name] = hashlib.sha256(
            ds.vectors.astype("<f4").tobytes()).hexdigest()
        suite = build_suite(spark, ds)
        out["table2"][name] = run_table2(suite)
        out["table3"][name] = run_table3(suite)
        out["fig2"][name] = run_fig2(spark, suite, nq=args.nq,
                                     seed=args.seed)
        out["fig3"][name] = run_fig3(spark, suite, nq=args.nq,
                                     seed=args.seed)
        out["fig4"][name] = run_fig4(spark, suite, nq=args.nq,
                                     seed=args.seed)
        if ds.attr2_rank is not None:
            out["fig5"][name] = run_fig5(spark, suite, nq=args.nq,
                                         seed=args.seed)
    if not args.skip_scalability:
        out["scalability"] = run_scalability(
            spark, "redcaps_lite", [1024, 2048, 4096], nq=args.nq,
            seed=args.seed,
        )
    dump("run_all", out)

    # Console summary: EXPERIMENTS.md's Figure 2 mixed-workload table.
    from render_experiments import blocks

    print(blocks(out)["fig2-mixed"])
    spark.stop()


if __name__ == "__main__":
    main()
