"""Run the full evaluation: build each dataset's index suite once, then
produce every table/figure from it (Tables 1-3, Figures 2-5,
scalability). Writes one consolidated ``results/run_all.json`` plus the
per-artifact JSON files the individual jobs would write.

This is the entrypoint whose numbers populate EXPERIMENTS.md:

    python jobs/run_all.py --n 4096 --nq 40
"""
import hashlib
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import arg_parser, dump, get_spark, print_matrix  # noqa: E402


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
    p = arg_parser(__doc__)
    p.add_argument("--skip-scalability", action="store_true")
    args = p.parse_args()
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
        suite = build_suite(spark, ds, time_local_irange=True)
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

    # Per-artifact files (same layout the standalone jobs write).
    dump("table2_memory", {
        m: {d: round(v, 2)
            for d in out["table2"]
            for mm, v in out["table2"][d]["footprint_mb"].items() if mm == m}
        for d0 in out["table2"]
        for m in out["table2"][d0]["footprint_mb"]
    })
    dump("table3_indexing_time", out["table3"])
    dump("fig2_single_attr", out["fig2"])
    dump("fig3_ablation", out["fig3"])
    dump("fig4_oracle", out["fig4"])
    dump("fig5_multi_attr", out["fig5"])
    dump("run_all", out)

    # Console summary: qps@0.9 per dataset on the mixed workload.
    for name in names:
        per_method = out["fig2"][name]["workloads"]["mixed"]
        print_matrix(
            f"[{name}] mixed workload",
            {m: {"qps@0.9": r["qps@0.9"], "dists@0.9": r["dists@0.9"],
                 "max_recall": round(r["max_recall"], 3)}
             for m, r in per_method.items()},
        )
    spark.stop()


if __name__ == "__main__":
    main()
