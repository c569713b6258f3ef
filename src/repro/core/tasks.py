"""One executor for the independent tasks of every Spark job.

The index build, the per-subset baseline graphs and the exact ground
truth all run a list of independent tasks, each returning an int32
array. :func:`run_tasks` runs them in a driver loop, or as one
shuffle-free ``mapInPandas`` job: ``fn`` and the tasks ride in the
function's closure, each Spark row is one group of task ids, and each
result comes back as bytes.
"""
from __future__ import annotations

import numpy as np


def run_tasks(spark, fn, tasks: list[tuple],
              sizes: list[int]) -> list[np.ndarray]:
    """``[fn(*t) for t in tasks]`` as flat int32 arrays, in task order.

    With ``spark=None`` the driver runs the tasks in a loop. With a
    SparkSession one job runs them in ``min(len(tasks),
    defaultParallelism)`` groups, not one Spark task each: local Spark
    spends about 0.3 s of a core on every Python task. The tasks are
    dealt largest ``size`` first, each to the least-loaded group (the one
    with fewer tasks on a tie), so no group is empty.
    """
    def one(i: int) -> np.ndarray:
        return np.asarray(fn(*tasks[i]), dtype=np.int32).ravel()

    if spark is None or not tasks:
        return [one(i) for i in range(len(tasks))]

    groups = [[] for _ in range(min(len(tasks),
                                    spark.sparkContext.defaultParallelism))]
    load = [0] * len(groups)
    for i in sorted(range(len(tasks)), key=lambda i: -sizes[i]):
        g = min(range(len(groups)), key=lambda g: (load[g], len(groups[g])))
        groups[g].append(i)
        load[g] += sizes[i]

    def run(frames):
        import pandas as pd

        for pdf in frames:
            ids = [i for row in pdf["task"] for i in row.tolist()]
            yield pd.DataFrame({"task": ids,
                                "block": [one(i).tobytes() for i in ids]})

    out = (spark.createDataFrame([(g,) for g in groups], "task array<long>")
           .mapInPandas(run, "task long, block binary")
           .toPandas())
    return [np.frombuffer(b, dtype=np.int32)
            for b in out.sort_values("task")["block"]]
