"""Tests for the one task runner behind every Spark job."""
import io
import tokenize
from pathlib import Path

import numpy as np
import pytest

from repro.core.tasks import run_tasks

ROOT = Path(__file__).resolve().parents[1]


def _ragged(i: int, length: int) -> np.ndarray:
    """Task ``i``'s block: ``length`` copies of ``i`` as two rows, so the
    runner must flatten it; empty when ``length`` is 0."""
    return np.full((2, length // 2), i, dtype=np.int64)


@pytest.mark.parametrize("executor", ["driver", "spark"])
def test_no_tasks(request, executor):
    spark = request.getfixturevalue("spark") if executor == "spark" else None
    assert run_tasks(spark, _ragged, [], []) == []


def test_results_in_task_order_when_dealing_reorders(spark):
    """Sizes rise with the task index, so dealing largest first reverses
    the tasks and spreads them over every group."""
    n = 3 * spark.sparkContext.defaultParallelism + 1
    tasks = [(i, 2 * i) for i in range(n)]
    got = run_tasks(spark, _ragged, tasks, list(range(n)))
    want = run_tasks(None, _ragged, tasks, list(range(n)))
    assert len(got) == len(want) == n
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype == np.int32
        np.testing.assert_array_equal(g, np.full(2 * i, i))
        np.testing.assert_array_equal(w, np.full(2 * i, i))


def test_empty_and_ragged_blocks_land_in_place(spark):
    """Empty blocks and blocks of different lengths, with sizes that do
    not follow the block lengths, each come back at their task's index."""
    lengths = [0, 6, 0, 2, 10, 0, 4]
    tasks = list(enumerate(lengths))
    sizes = [5, 0, 0, 9, 1, 3, 0]
    got = run_tasks(spark, _ragged, tasks, sizes)
    assert [len(b) for b in got] == lengths
    for i, b in enumerate(got):
        assert np.all(b == i)


def test_only_the_runner_builds_spark_task_jobs():
    """``mapInPandas`` appears in exactly one module of ``src/repro``:
    every Spark task job goes through :func:`run_tasks`."""
    users = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for tok in tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline
        ):
            if tok.type == tokenize.NAME and tok.string == "mapInPandas":
                users.add(path.relative_to(ROOT / "src" / "repro").as_posix())
    assert users == {"core/tasks.py"}
