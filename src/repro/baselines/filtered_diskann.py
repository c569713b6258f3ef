"""Filtered-DiskANN baselines adapted to range filtering (paper §5.1).

Following the paper's adaptation protocol: the full rank range ``[1, n]``
is evenly divided into 10 consecutive buckets, each bucket is a *label*;
a query's label set is the buckets intersecting its range, and results
are post-filtered to the exact range.

* **StitchedVamana** — build one graph per label and stitch (union)
  them; with disjoint single-label points the stitched graph is the
  disjoint union.
* **FilteredVamana** — a single graph built incrementally in one seeded
  insertion order, where each insertion's candidates come from its own
  label, entered from the label's first inserted node, mirroring
  FilteredRobustPrune's "candidates share a label with u" constraint.
  With one label per point and labels that are rank buckets, that is one
  ``build_hnsw`` per bucket, in the bucket's share of the order.

In both graphs every edge joins two nodes of one label, so a query's
greedy search, seeded from the medoid of each label its range touches,
never leaves those labels; results are post-filtered to the range.

Both inherit the failure mode the paper reports: bucket length is fixed
at index time, so small query ranges drown in same-label out-of-range
objects and recall stalls below 0.8 for small/mixed workloads.
"""
from __future__ import annotations

import numpy as np

from repro.baselines._spark_build import build_subset_graphs
from repro.core.beam_search import beam_search, top_k
from repro.core.hnsw import build_hnsw


class _LabelIndexBase:
    """Shared label layout + query path for the two Vamana adaptations."""

    def __init__(self, vectors: np.ndarray, n_labels: int) -> None:
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        n = len(vectors)
        self.n = n
        self.bounds = np.linspace(0, n, n_labels + 1, dtype=np.int64)
        # label of 0-based node u
        self.label = (
            np.searchsorted(self.bounds, np.arange(1, n + 1), side="left") - 1
        )
        # label -> medoid (here: central rank), used as search seeds;
        # empty buckets (n < n_labels) have no label and no medoid
        self.medoids = {
            b: int((self.bounds[b] + self.bounds[b + 1] + 1) // 2 - 1)
            for b in range(n_labels)
            if self.bounds[b + 1] > self.bounds[b]
        }

    def search(self, query, lo, hi, *, beam, k, counter=None):
        """Greedy search seeded from the medoids of the query's labels
        (edges never leave a label); results are post-filtered to
        ``[lo, hi]``."""
        lo, hi = max(1, lo), min(self.n, hi)
        if lo > hi:
            return np.empty(0, dtype=np.int64)
        labs = np.unique(self.label[lo - 1 : hi]).tolist()
        entries = [self.medoids[b] for b in labs]
        adj = self.adj
        lo0, hi0 = lo - 1, hi - 1
        ids, dists = beam_search(
            query,
            self.vectors,
            lambda u: adj[u][adj[u] >= 0],
            entries,
            beam=beam,
            counter=counter,
        )
        res = top_k(ids, dists, k, keep=lambda i: (i >= lo0) & (i <= hi0))
        return res + 1

    def memory_bytes(self) -> dict[str, int]:
        return {
            "vectors": int(self.vectors.nbytes),
            "index": int(self.adj.nbytes + self.label.nbytes),
        }


class StitchedVamanaIndex(_LabelIndexBase):
    """Per-label HNSW graphs stitched into one adjacency."""

    def __init__(
        self,
        vectors: np.ndarray,
        *,
        n_labels: int = 10,
        m: int = 16,
        ef: int = 100,
        spark=None,
    ) -> None:
        super().__init__(vectors, n_labels)
        intervals = {b: (self.bounds[b] + 1, self.bounds[b + 1])
                     for b in self.medoids}
        graphs = build_subset_graphs(spark, self.vectors, intervals, m=m,
                                     ef=ef)
        self.adj = np.full((self.n, m), -1, dtype=np.int32)
        for g in graphs.values():
            self.adj[g.lo - 1 : g.hi] = g.adj


class FilteredVamanaIndex(_LabelIndexBase):
    """Single incrementally built graph with label-constrained candidates."""

    def __init__(
        self,
        vectors: np.ndarray,
        *,
        n_labels: int = 10,
        m: int = 16,
        ef: int = 100,
    ) -> None:
        super().__init__(vectors, n_labels)
        order = np.random.default_rng(0).permutation(self.n)
        self.adj = np.full((self.n, m), -1, dtype=np.int32)
        # Each label's first inserted node is its build entry point, and
        # the query path's seed too.
        for b in self.medoids:
            lo, hi = self.bounds[b], self.bounds[b + 1]
            g = build_hnsw(
                self.vectors[lo:hi], m=m, ef_construction=ef,
                order=order[(order >= lo) & (order < hi)] - lo,
            )
            self.adj[lo:hi] = np.where(g.adj >= 0, g.adj + lo, -1)
            self.medoids[b] = int(g.entry + lo)
