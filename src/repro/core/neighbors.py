"""Distance kernels and the padded-adjacency graph representation.

Every graph in this reproduction (elemental graphs, HNSW-lite, bucket
graphs, ...) is stored as an ``(n, m)`` int32 array padded with ``NO_EDGE``
(-1): row ``u`` holds the out-neighbors of node ``u``. Distances are
squared Euclidean (monotone in Euclidean, cheaper) and every scoring of a
data vector against a query goes through :class:`DistanceCounter`, which
is the hardware-independent cost metric reported next to wall-clock qps
(the paper's technical report tracks the same metric).
"""
from __future__ import annotations

import numpy as np

NO_EDGE: int = -1


class DistanceCounter:
    """Counts vector distance computations.

    The paper's qps numbers come from optimized single-threaded C++; our
    kernels are numpy, so the count of distance computations is the
    faithful cross-method cost measure. All search/scan kernels accept a
    counter and bump it by the number of data vectors scored.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


def dist_batch(
    q: np.ndarray, x: np.ndarray, counter: DistanceCounter | None = None
) -> np.ndarray:
    """Squared Euclidean distances from ``q`` to each row of ``x``.

    Counts ``len(x)`` distance computations on ``counter``.
    """
    diff = x - q
    out = np.einsum("ij,ij->i", diff, diff)
    if counter is not None:
        counter.add(len(x))
    return out


def pairwise_sq(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """All-pairs squared Euclidean distances (index-build helper)."""
    if y is None:
        y = x
    xx = np.einsum("ij,ij->i", x, x)
    yy = np.einsum("ij,ij->i", y, y)
    d = xx[:, None] + yy[None, :] - 2.0 * (x @ y.T)
    np.maximum(d, 0.0, out=d)
    return d


def empty_adjacency(n: int, m: int) -> np.ndarray:
    """A fresh ``(n, m)`` adjacency filled with ``NO_EDGE``."""
    return np.full((n, m), NO_EDGE, dtype=np.int32)


def pack_neighbors(neighbor_lists: list[np.ndarray], m: int) -> np.ndarray:
    """Pack variable-length neighbor id lists into a padded adjacency."""
    adj = empty_adjacency(len(neighbor_lists), m)
    for i, nbrs in enumerate(neighbor_lists):
        k = min(len(nbrs), m)
        adj[i, :k] = nbrs[:k]
    return adj


def adjacency_bytes(adj: np.ndarray) -> int:
    """Memory accounting: bytes of one padded adjacency."""
    return int(adj.nbytes)
