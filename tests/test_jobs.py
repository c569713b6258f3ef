"""Smoke tests for the jobs/ entrypoints and their shared plumbing."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"
RESULTS = JOBS.parent / "results"


def _load_common():
    spec = importlib.util.spec_from_file_location("_common",
                                                  JOBS / "_common.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_dump_writes_json(tmp_path, monkeypatch):
    common = _load_common()
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    out = common.dump("x", {"a": np.int64(3), "b": np.float32(1.5),
                            "c": np.arange(2)})
    data = json.loads(out.read_text())
    assert data == {"a": 3, "b": 1.5, "c": [0, 1]}


def test_jsonable_rejects_unknown():
    common = _load_common()
    with pytest.raises(TypeError):
        common._jsonable(object())


def test_print_matrix_handles_none(capsys):
    common = _load_common()
    common.print_matrix("t", {"row": {"a": None, "b": 1.0, "c": "x"}})
    out = capsys.readouterr().out
    assert "—" in out and "row" in out


def test_arg_parser_defaults():
    common = _load_common()
    args = common.arg_parser("d").parse_args([])
    assert args.n == 4096 and args.nq == 40 and args.datasets is None


@pytest.mark.parametrize(
    "job",
    ["table1_datasets.py", "table2_memory.py", "table3_indexing_time.py",
     "fig2_single_attr.py", "fig3_ablation.py", "fig4_oracle.py",
     "fig5_multi_attr.py", "scalability.py", "run_all.py"],
)
def test_job_help_runs(job):
    """Every entrypoint parses --help without importing Spark."""
    proc = subprocess.run(
        [sys.executable, str(JOBS / job), "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_table1_job_end_to_end(tmp_path):
    """One full job subprocess (the cheapest): spins its own Spark,
    writes table1_datasets.json into a temporary results directory."""
    proc = subprocess.run(
        [sys.executable, str(JOBS / "table1_datasets.py"), "--n", "64",
         "--nq", "4", "--datasets", "ytaudio_lite"],
        capture_output=True, text=True, timeout=420,
        env={**os.environ, "REPRO_RESULTS_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    payload = json.loads((tmp_path / "table1_datasets.json").read_text())
    assert payload["materialized"][0]["n"] == 64


def test_table3_job_writes_run_all_layout(tmp_path):
    """The standalone Table-3 job writes ``table3_indexing_time.json`` in
    the layout run_all.py gives it (and its ``table3`` section): one
    ``run_table3`` dict per dataset, with the same keys."""
    proc = subprocess.run(
        [sys.executable, str(JOBS / "table3_indexing_time.py"), "--n", "64",
         "--nq", "4", "--datasets", "ytaudio_lite"],
        capture_output=True, text=True, timeout=420,
        env={**os.environ, "REPRO_RESULTS_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads((tmp_path / "table3_indexing_time.json").read_text())
    assert list(got) == ["ytaudio_lite"]
    committed = json.loads((RESULTS / "table3_indexing_time.json").read_text())
    run_all = json.loads((RESULTS / "run_all.json").read_text())["table3"]
    assert committed == run_all
    for per_dataset in committed.values():
        assert set(got["ytaudio_lite"]) == set(per_dataset)
        assert set(got["ytaudio_lite"]["seconds"]) == set(per_dataset["seconds"])
