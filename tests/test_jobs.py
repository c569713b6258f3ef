"""Smoke tests for the jobs/ entrypoints and the committed results."""
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"
RESULTS = JOBS.parent / "results"


def _load_run_all():
    spec = importlib.util.spec_from_file_location("run_all",
                                                  JOBS / "run_all.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_dump_writes_json(tmp_path, monkeypatch):
    run_all = _load_run_all()
    monkeypatch.setattr(run_all, "RESULTS_DIR", tmp_path)
    out = run_all.dump("x", {"a": np.int64(3), "b": np.float32(1.5),
                             "c": np.arange(2)})
    data = json.loads(out.read_text())
    assert data == {"a": 3, "b": 1.5, "c": [0, 1]}


def test_jsonable_rejects_unknown():
    run_all = _load_run_all()
    with pytest.raises(TypeError):
        run_all._jsonable(object())


def test_arg_parser_defaults():
    run_all = _load_run_all()
    args = run_all.arg_parser("d").parse_args([])
    assert args.n == 4096 and args.nq == 40 and args.datasets is None
    assert not args.skip_scalability


@pytest.mark.parametrize("job", ["run_all.py"])
def test_job_help_runs(job):
    """The entrypoint parses --help without importing Spark."""
    proc = subprocess.run(
        [sys.executable, str(JOBS / job), "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_committed_results_have_one_writer():
    """``results/`` holds run_all.py's output and its log, and nothing
    else: no second writer, no file a test left behind."""
    assert sorted(p.name for p in RESULTS.iterdir()) == [
        "run_all.json", "run_all.log"]


def test_run_all_end_to_end(tmp_path):
    """One small run_all.py subprocess (its own Spark) writes exactly
    ``run_all.json`` into a temporary results directory, with its config
    and every table/figure section."""
    proc = subprocess.run(
        [sys.executable, str(JOBS / "run_all.py"), "--n", "64", "--nq", "4",
         "--datasets", "ytaudio_lite", "--skip-scalability"],
        capture_output=True, text=True, timeout=420,
        env={**os.environ, "REPRO_RESULTS_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert [p.name for p in tmp_path.iterdir()] == ["run_all.json"]
    out = json.loads((tmp_path / "run_all.json").read_text())
    cfg = out["config"]
    assert (cfg["n"], cfg["nq"], cfg["seed"]) == (64, 4, 7)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=JOBS,
                          capture_output=True, text=True)
    if head.returncode == 0:
        assert re.fullmatch(r"[0-9a-f]{40}", cfg["commit"])
        assert cfg["commit"] == head.stdout.strip()
    else:  # an exported tree without git metadata
        assert cfg["commit"] is None
    assert list(cfg["vectors_sha256"]) == ["ytaudio_lite"]
    assert re.fullmatch(r"[0-9a-f]{64}", cfg["vectors_sha256"]["ytaudio_lite"])
    assert list(out) == ["config", "table1", "table2", "table3", "fig2",
                         "fig3", "fig4", "fig5"]
    for section in ("table2", "table3", "fig2", "fig3", "fig4", "fig5"):
        assert list(out[section]) == ["ytaudio_lite"], section
