"""A local Spark session confined to the checkout, and its clean shutdown.

The caller sets ``PYTHONPATH`` (the Python workers must import ``repro``),
``OPENBLAS_NUM_THREADS=1`` and ``TMPDIR`` before this module is imported;
the JVM and its workers inherit them.
"""
from __future__ import annotations

import os
import subprocess
from pathlib import Path


def start(cores: int, workdir: Path):
    """A ``local[cores]`` session whose scratch files stay under ``workdir``."""
    tmp = workdir / "spark"
    tmp.mkdir(parents=True, exist_ok=True)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 1g "
        f'--driver-java-options "{java_opts}" '
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session and wait for the gateway JVM to exit (it exits
    when its stdin closes; its Python workers go with it)."""
    sc = spark.sparkContext
    gateway = sc._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
