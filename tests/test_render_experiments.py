"""Tests for the EXPERIMENTS.md table renderer."""
import importlib.util
import json
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _load():
    spec = importlib.util.spec_from_file_location(
        "render_experiments", JOBS / "render_experiments.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_fmt():
    mod = _load()
    assert mod.fmt(None) == "—"
    assert mod.fmt(1234.0) == "1,234"
    assert mod.fmt(1.23456) == "1.23"
    assert mod.fmt("x") == "x"


def test_md_table_layout():
    mod = _load()
    out = mod.md_table({"a": {"c1": 1.0, "c2": None}}, ["c1", "c2"])
    lines = out.splitlines()
    assert lines[0] == "| | c1 | c2 |"
    assert "| a | 1 | — |" in lines


def _fake_results() -> dict:
    curve = [{"beam": 10, "recall": 0.95, "qps": 100.0, "dists": 50.0}]
    method = {"curve": curve, "qps@0.9": 100.0, "dists@0.9": 50.0,
              "max_recall": 0.95}
    return {
        "table2": {"d1": {"footprint_mb": {"iRangeGraph": 1.5,
                                           "raw vectors": 1.0}}},
        "table3": {"d1": {"seconds": {"iRangeGraph": 2.0},
                          "hnsw_reference_seconds": 1.0,
                          "irange_local_seconds": 2.5,
                          "irange_local_over_hnsw": 2.5}},
        "fig2": {"d1": {"workloads": {w: {"iRangeGraph": method}
                                      for w in ("mixed", "large",
                                                "moderate", "small")}}},
        "fig3": {"d1": {"variants": {"iRangeGraph": method,
                                     "BasicSearch": method}}},
        "fig4": {"d1": {"methods": {"iRangeGraph": method,
                                    "Oracle-HNSW": method}}},
        "fig5": {"d1": {"methods": {"iRangeGraph+": method}}},
        "scalability": [{"n": 512, "build_seconds": 3.0,
                         "footprint_mb": 1.0, "qps@0.9": 10.0,
                         "dists@0.9": 5.0}],
    }


def test_main_renders_fake_results(tmp_path, monkeypatch):
    """``main()`` fills every marked block of a temporary document from a
    fake ``run_all.json`` and keeps the prose; a second run changes
    nothing, and a marker without a block (or a block without a marker)
    raises."""
    mod = _load()
    (tmp_path / "run_all.json").write_text(json.dumps(_fake_results()))
    doc = tmp_path / "EXPERIMENTS.md"
    names = ["table2", "table3", "fig2-mixed", "fig2-large",
             "fig2-moderate", "fig2-small", "fig3", "fig4", "fig5",
             "scalability"]
    stale = "".join(f"Prose {n}.\n\n<!-- table:{n} -->\n| old |\n"
                    "<!-- /table -->\n\n" for n in names)
    doc.write_text(stale)
    monkeypatch.setattr(mod, "RESULTS", tmp_path)
    monkeypatch.setattr(mod, "EXPERIMENTS", doc)
    mod.main()
    once = doc.read_text()
    assert "| old |" not in once
    assert all(f"Prose {n}." in once for n in names)
    assert "| iRangeGraph (driver-local) / HNSW | 2.5 |" in once
    assert "| iRangeGraph / Oracle-HNSW dists@0.9 | 1 |" in once
    assert "| 512 | 3 | 5 | 1 | 10 |" in once
    mod.main()
    assert doc.read_text() == once

    doc.write_text(once + "<!-- table:fig6 -->\n<!-- /table -->\n")
    with pytest.raises(ValueError, match="fig6"):
        mod.main()
    doc.write_text(once.replace("<!-- table:fig5 -->", "<!-- fig5 -->"))
    with pytest.raises(ValueError, match="fig5"):
        mod.main()


def test_experiments_md_is_the_rendering_of_committed_results():
    """Every JSON-derived table in EXPERIMENTS.md is byte for byte the
    renderer's block for the committed ``results/run_all.json``, and the
    marked blocks are exactly the rendered ones."""
    mod = _load()
    new = mod.blocks(json.loads((mod.RESULTS / "run_all.json").read_text()))
    doc = mod.EXPERIMENTS.read_text()
    assert sorted(mod.BLOCK.findall(doc)) == sorted(new)
    for name, table in new.items():
        assert mod.marked(name, table) in doc, name
