"""Shared test fixtures: small deterministic datasets and pre-built
indexes (session-scoped — graph builds dominate test runtime)."""
from __future__ import annotations

import numpy as np
import pytest


def make_clustered(n: int, d: int, n_clusters: int = 12, seed: int = 0,
                   nq: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-mixture points: (data (n,d), queries (nq,d)) float32."""
    g = np.random.default_rng(seed)
    centers = g.normal(size=(n_clusters, d))
    pts = centers[g.integers(0, n_clusters, n + nq)] + 0.35 * g.normal(
        size=(n + nq, d)
    )
    pts = pts.astype(np.float32)
    return pts[:n], pts[n:]


@pytest.fixture(scope="session")
def small_data() -> tuple[np.ndarray, np.ndarray]:
    """n=256, d=16 clustered vectors + 16 queries."""
    return make_clustered(256, 16, seed=0)


@pytest.fixture(scope="session")
def med_data() -> tuple[np.ndarray, np.ndarray]:
    """n=512, d=16 clustered vectors + 16 queries."""
    return make_clustered(512, 16, seed=1)


@pytest.fixture(scope="session")
def irange_index(small_data):
    from repro.core.irange_build import build_irange_index_local

    X, _ = small_data
    return build_irange_index_local(X, m=8, ef=50, leaf_size=32)


@pytest.fixture(scope="session")
def whole_graph(small_data):
    """One HNSW-lite over all of ``small_data`` (Table 3's reference)."""
    from repro.core.hnsw import build_hnsw

    X, _ = small_data
    return build_hnsw(X, m=8, ef_construction=50, seed=0)


@pytest.fixture(scope="session")
def gt10(small_data):
    """Exact top-10 per (query, range) pair, lazily cached."""
    from repro.eval.ground_truth import exact_rfann_np

    X, Q = small_data
    cache: dict = {}

    def get(qi: int, lo: int, hi: int, k: int = 10):
        key = (qi, lo, hi, k)
        if key not in cache:
            cache[key] = exact_rfann_np(X, Q[qi], lo, hi, k)[0]
        return cache[key]

    return get
