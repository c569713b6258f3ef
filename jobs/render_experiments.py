"""Rewrite EXPERIMENTS.md's result tables from results/run_all.json.

Each table in EXPERIMENTS.md that comes from the JSON sits between
``<!-- table:NAME -->`` and ``<!-- /table -->``. :func:`blocks` renders
every such table from the JSON, and :func:`main` replaces exactly the
marked blocks in place, leaving the prose around them as it is:

    python jobs/render_experiments.py
"""
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
BLOCK = re.compile(r"<!-- table:(\S+) -->\n.*?<!-- /table -->", re.S)


def fmt(v, digits=3):
    if v is None:
        return "—"
    if isinstance(v, float):
        if v >= 100:
            return f"{v:,.0f}"
        return f"{v:.{digits}g}"
    return str(v)


def md_table(rows: dict[str, dict[str, object]], col_order=None) -> str:
    cols = col_order or sorted({c for r in rows.values() for c in r})
    out = ["| | " + " | ".join(cols) + " |",
           "|---" * (len(cols) + 1) + "|"]
    for name, r in rows.items():
        out.append(
            f"| {name} | " + " | ".join(fmt(r.get(c)) for c in cols) + " |"
        )
    return "\n".join(out)


def marked(name: str, table: str) -> str:
    """``table`` between the markers of block ``name``."""
    return f"<!-- table:{name} -->\n{table}\n<!-- /table -->"


def _pivot(per_dataset: dict, cell=lambda r: r) -> dict[str, dict]:
    """``{dataset: {method: result}}`` -> ``{method: {dataset: cell}}``."""
    rows: dict[str, dict] = {}
    for d, methods in per_dataset.items():
        for m, r in methods.items():
            rows.setdefault(m, {})[d] = cell(r)
    return rows


def _at_09(r) -> str:
    return f"{fmt(r['qps@0.9'])} / {fmt(r['dists@0.9'])}"


def _at_09_max(r) -> str:
    return f"{_at_09(r)} / {fmt(round(r['max_recall'], 2))}"


def blocks(data: dict) -> dict[str, str]:
    """Every EXPERIMENTS.md table, by block name, rendered from the
    ``run_all.json`` payload ``data``."""
    datasets = list(data["table2"])
    t3 = data["table3"]
    table3 = _pivot({d: t3[d]["seconds"] for d in datasets})
    for label, key in (("HNSW (reference)", "hnsw_reference_seconds"),
                       ("iRangeGraph (driver-local)", "irange_local_seconds"),
                       ("iRangeGraph (driver-local) / HNSW",
                        "irange_local_over_hnsw")):
        table3[label] = {d: t3[d][key] for d in datasets}
    fig4 = {d: r["methods"] for d, r in data["fig4"].items()}
    fig4_rows = _pivot(fig4, _at_09)
    ratio = fig4_rows["iRangeGraph / Oracle-HNSW dists@0.9"] = {}
    for d, ms in fig4.items():
        a, b = ms["Oracle-HNSW"]["dists@0.9"], ms["iRangeGraph"]["dists@0.9"]
        ratio[d] = b / a if a and b else None
    out = {
        "table2": md_table(_pivot(
            {d: r["footprint_mb"] for d, r in data["table2"].items()}),
            datasets),
        "table3": md_table(table3, datasets),
        "fig3": md_table(_pivot(
            {d: r["variants"] for d, r in data["fig3"].items()}, _at_09),
            datasets),
        "fig4": md_table(fig4_rows, datasets),
        "fig5": md_table(_pivot(
            {d: r["methods"] for d, r in data["fig5"].items()}, _at_09_max),
            list(data["fig5"])),
    }
    for w in ("mixed", "large", "moderate", "small"):
        out[f"fig2-{w}"] = md_table(_pivot(
            {d: r["workloads"][w] for d, r in data["fig2"].items()},
            _at_09_max), datasets)
    if "scalability" in data:
        out["scalability"] = md_table(
            {str(r["n"]): {k: v for k, v in r.items() if k != "n"}
             for r in data["scalability"]})
    return out


def main() -> None:
    new = blocks(json.loads((RESULTS / "run_all.json").read_text()))
    doc = EXPERIMENTS.read_text()
    names = BLOCK.findall(doc)
    if sorted(names) != sorted(new):
        raise ValueError(
            f"{EXPERIMENTS.name} marks tables {sorted(names)}, but "
            f"run_all.json renders {sorted(new)}")
    EXPERIMENTS.write_text(BLOCK.sub(lambda m: marked(m[1], new[m[1]]), doc))


if __name__ == "__main__":
    main()
