"""Table 3 — indexing time (s) of every method on every dataset.

Also records the single-HNSW reference build and the iRangeGraph/HNSW
ratio — the paper's empirical Theorem-3.1 check ("no more than 3x").
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import arg_parser, dump, get_spark, print_matrix  # noqa: E402


def main() -> None:
    args = arg_parser(__doc__).parse_args()
    spark = get_spark()
    from repro.eval.datasets import SPECS, load_dataset
    from repro.eval.experiments import build_suite, run_table3

    names = args.datasets or list(SPECS)
    out = {}
    for name in names:
        ds = load_dataset(spark, name, n=args.n, nq=args.nq, seed=args.seed)
        out[name] = run_table3(build_suite(spark, ds, time_local_irange=True))
    # The layout run_all.py writes: one run_table3 dict per dataset.
    dump("table3_indexing_time", out)
    print_matrix("Table 3: indexing time (s)", {
        name: {**r["seconds"], "HNSW (reference)": r["hnsw_reference_seconds"],
               "iRangeGraph (local)": r["irange_local_seconds"]}
        for name, r in out.items()})
    print("iRangeGraph (local) / HNSW build ratio:",
          {name: round(r["irange_local_over_hnsw"], 2)
           for name, r in out.items()})
    spark.stop()


if __name__ == "__main__":
    main()
