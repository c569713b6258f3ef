"""RFANN benchmark of the iRangeGraph reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 5 --trace 0

Workloads: ``mixed``, ``multiattr``, ``build`` (see ``workloads.py`` and
``README.md`` here). All inputs come from ``--seed``. With ``--trace 0``
the run prints the end-to-end metrics; with ``--trace 1`` it serves the
queries once more with spans on and prints the per-layer metrics. The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _prepare_environment() -> None:
    """Pin BLAS to one thread and keep scratch files in the checkout.

    Must run before numpy is imported. Spark's JVM and Python workers
    inherit this environment; the workers need ``src`` to import
    ``repro``.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mixed", "multiattr", "build"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "repro" / "core").is_dir():
        print(f"perfbench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    _prepare_environment()

    import workloads

    out = workloads.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), OUT)
    units = workloads.PER_LAYER if args.trace else workloads.E2E
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in out.notes:
        print("  " + line)
    for name, value in out.metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    frac = out.failed / out.attempted if out.attempted else 0.0
    print(f"  {'failed_frac':44s} {frac:14.6g} fraction "
          f"({out.failed} of {out.attempted} operations)")
    for msg in out.problems:
        print(f"  CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        # A metric that could not be computed (the run failed) is null.
        "metrics": {k: {"value": v if math.isfinite(v) else None,
                        "unit": units[k]}
                    for k, v in out.metrics.items()},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
