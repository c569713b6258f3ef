"""Synthetic substitutes for the paper's five real datasets (Table 1).

The paper evaluates on 1M-object real datasets (WIT 2048-d image,
TripClick 768-d text, Redcaps 512-d multi-modal, YT-Rgb 1024-d video with
two attributes, YT-Audio 128-d audio with two attributes). Offline we
generate clustered Gaussian-mixture vectors — graph-based ANN is
non-trivial on them, unlike uniform noise — with per-dataset
dimensionality preserving the paper's ordering, and attribute columns
drawn from distributions shaped like the real ones (log-normal sizes,
uniform dates, heavy-tailed like-counts with duplicate values). The
paper shows the attribute *distribution* is irrelevant once values are
reduced to ranks (Section 2.2) — a property our tests verify — so this
substitution preserves the benchmark's structure.

The attribute→rank reduction runs as a Spark dataflow (Window +
row_number over the attribute order), cross-checked against DuckDB.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

# name -> (dim, n_clusters, attr1 kind, attr2 kind or None)
SPECS: dict[str, tuple[int, int, str, str | None]] = {
    "wit_lite": (96, 32, "lognormal", None),  # image size
    "tripclick_lite": (48, 24, "uniform_int", None),  # publication date
    "redcaps_lite": (32, 24, "uniform", None),  # timestamp
    "ytrgb_lite": (64, 32, "heavy_tail", "heavy_tail"),  # likes, comments
    "ytaudio_lite": (16, 16, "uniform_int", "heavy_tail"),  # time, views
}


@dataclass
class RFDataset:
    """A dataset in attribute-1 rank order, ready for index building.

    ``vectors[i]`` is the object with attribute-1 rank ``i+1``;
    ``attr`` is the ascending attribute-1 column; ``attr2_rank`` (if the
    dataset has a second attribute) is aligned with ``vectors`` rows.
    """

    name: str
    vectors: np.ndarray
    queries: np.ndarray
    attr: np.ndarray
    attr2_rank: np.ndarray | None = None
    raw: pd.DataFrame = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _attr_column(kind: str, n: int, g: np.random.Generator) -> np.ndarray:
    if kind == "lognormal":
        return np.exp(g.normal(12.0, 1.0, n))  # image sizes in bytes
    if kind == "uniform":
        return g.random(n) * 1e9  # POSIX-ish timestamps
    if kind == "uniform_int":
        return g.integers(0, 20_000, n).astype(np.float64)  # day numbers
    if kind == "heavy_tail":
        # like/view counts: many small values (duplicates!), long tail
        return np.floor(np.exp(g.normal(3.0, 2.0, n))).astype(np.float64)
    raise ValueError(f"unknown attribute kind {kind!r}")


def _mixture(
    n: int, d: int, n_clusters: int, g: np.random.Generator
) -> np.ndarray:
    centers = g.normal(0.0, 1.0, (n_clusters, d))
    assign = g.integers(0, n_clusters, n)
    return (centers[assign] + 0.35 * g.normal(0.0, 1.0, (n, d))).astype(
        np.float32
    )


def generate_raw(
    name: str, *, n: int, nq: int, seed: int = 7
) -> tuple[pd.DataFrame, np.ndarray]:
    """Unsorted raw table ``(id, attr, attr2?, vector)`` + query vectors."""
    d, n_clusters, a1, a2 = SPECS[name]
    # crc32, not hash(): Python salts str hashes per process.
    g = np.random.default_rng(seed + zlib.crc32(name.encode()) % (2**16))
    pts = _mixture(n + nq, d, n_clusters, g)
    data, queries = pts[:n], pts[n:]
    raw = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "attr": _attr_column(a1, n, g),
            "vector": [row for row in data],
        }
    )
    if a2 is not None:
        raw["attr2"] = _attr_column(a2, n, g)
    return raw, queries


def rank_order_spark(spark, raw: pd.DataFrame) -> pd.DataFrame:
    """Attribute→rank reduction as a Spark dataflow (Section 2.2).

    Assigns the dense 1-based ``rank`` by ``(attr, id)`` order (ties on
    duplicate attribute values broken by id, as in the paper's sort-and-
    map reduction) and, when present, ``attr2_rank`` by ``(attr2, id)``.
    Returns the table ordered by ``rank``.
    """
    from pyspark.sql import Window
    from pyspark.sql import functions as F

    df = spark.createDataFrame(raw)
    df = df.withColumn(
        "rank", F.row_number().over(Window.orderBy("attr", "id"))
    )
    if "attr2" in raw.columns:
        df = df.withColumn(
            "attr2_rank", F.row_number().over(Window.orderBy("attr2", "id"))
        )
    return df.orderBy("rank").toPandas()


def load_dataset(
    spark, name: str, *, n: int = 4096, nq: int = 50, seed: int = 7
) -> RFDataset:
    """Generate + rank-order one dataset. Deterministic in ``seed``."""
    raw, queries = generate_raw(name, n=n, nq=nq, seed=seed)
    ordered = rank_order_spark(spark, raw)
    vectors = np.ascontiguousarray(
        np.stack(ordered["vector"].to_numpy()), dtype=np.float32
    )
    return RFDataset(
        name=name,
        vectors=vectors,
        queries=np.ascontiguousarray(queries, dtype=np.float32),
        attr=ordered["attr"].to_numpy(),
        attr2_rank=(
            ordered["attr2_rank"].to_numpy(dtype=np.int64)
            if "attr2_rank" in ordered.columns
            else None
        ),
        raw=raw,
    )


def table1_rows(n: int, nq: int) -> list[dict]:
    """The Table-1 inventory for our substitutes."""
    human = {
        "wit_lite": ("image-like", "image size"),
        "tripclick_lite": ("text-like", "publication date"),
        "redcaps_lite": ("multi-modal-like", "timestamp"),
        "ytrgb_lite": ("video-like", "# likes, # comments"),
        "ytaudio_lite": ("audio-like", "publish time, # views"),
    }
    return [
        {
            "dataset": name,
            "vector_type": human[name][0],
            "dim": SPECS[name][0],
            "attributes": human[name][1],
            "n_objects": n,
            "n_queries": nq,
        }
        for name in SPECS
    ]
