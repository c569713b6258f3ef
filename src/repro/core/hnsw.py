"""HNSW-lite: an approximate-RNG navigable graph built by incremental
insertion (the paper's candidate-generation convention, Section 2.1/3.2).

This is the flat (level-0) variant of HNSW: each insertion beam-searches
the current graph for ``ef_construction`` candidates, RNG-prunes them to
at most ``m`` out-edges, then adds reverse edges and repairs any neighbor
list that overflows ``m`` with another RNG prune. hnswlib's level-0
behaves identically; the hierarchy only accelerates entry-point location,
which a beam over n <= 10^4 nodes does not need.

With ``labels`` the same loop builds Filtered-DiskANN's FilteredVamana
(Gollapudi et al., WWW 2023): each label's first inserted node is its
entry point and starts every insertion's candidate search. An edge only
joins a node to candidates found from its label's entry point, so every
edge, and hence every search, stays inside one label.

The builder can record the full *edge history* (birth/death insertion
step of every directed edge). With insertion in attribute-rank order this
is exactly SeRF's 1-D segment graph: filtering edges by
``birth <= t < death`` reconstructs, losslessly, the HNSW that existed
after the first ``t`` insertions (used by ``baselines/serf_like.py``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.beam_search import beam_search, top_k
from repro.core.neighbors import DistanceCounter, pack_neighbors
from repro.core.rng_prune import rng_prune


@dataclass
class FlatGraph:
    """A searchable flat proximity graph over ``vectors`` (local ids)."""

    vectors: np.ndarray  # (n, d) float32
    adj: np.ndarray  # (n, m) int32, NO_EDGE padded
    entry: int  # entry node for greedy search

    # Optional SeRF edge history: parallel arrays of directed edges.
    edge_src: np.ndarray | None = field(default=None, repr=False)
    edge_dst: np.ndarray | None = field(default=None, repr=False)
    edge_birth: np.ndarray | None = field(default=None, repr=False)
    edge_death: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.vectors)

    def search(
        self,
        query: np.ndarray,
        *,
        beam: int,
        k: int,
        counter: DistanceCounter | None = None,
        visit_filter=None,
        result_keep=None,
        entries: list[int] | None = None,
    ) -> np.ndarray:
        """Beam search this graph; returns up to ``k`` local ids."""
        adj = self.adj
        ids, dists = beam_search(
            query,
            self.vectors,
            lambda u: adj[u][adj[u] >= 0],
            entries if entries is not None else [self.entry],
            beam=beam,
            counter=counter,
            visit_filter=visit_filter,
        )
        return top_k(ids, dists, k, keep=result_keep)


def build_hnsw(
    vectors: np.ndarray,
    *,
    m: int = 16,
    ef_construction: int = 100,
    order: np.ndarray | None = None,
    seed: int = 0,
    record_history: bool = False,
    labels: np.ndarray | None = None,
) -> FlatGraph:
    """Build an HNSW-lite graph by incremental insertion.

    ``order`` fixes the insertion order (SeRF needs rank order); by
    default a seeded random permutation is used, which is what hnswlib
    effectively sees on attribute-sorted data fed in shuffled order.
    ``labels`` (one int per node) enters each insertion's candidate
    search at its label's first inserted node, which confines it to the
    label; ``entry`` is still the first inserted node overall.
    """
    n = len(vectors)
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    if order is None:
        order = np.random.default_rng(seed).permutation(n)
    else:
        order = np.asarray(order)
    assert len(order) == n

    adj_lists: list[list[int]] = [[] for _ in range(n)]
    birth: dict[tuple[int, int], int] = {}
    death: dict[tuple[int, int], int] = {}
    entries: dict[int, int] = {}  # label (0 without labels) -> first node

    def neighbors(u: int) -> np.ndarray:
        return np.asarray(adj_lists[u], dtype=np.int64)

    for t, u in enumerate(order.tolist()):
        b = 0 if labels is None else int(labels[u])
        if b not in entries:
            entries[b] = u
            continue
        ids, dists = beam_search(
            vectors[u], vectors, neighbors, [entries[b]], beam=ef_construction
        )
        # Candidates = the ef best scored nodes.
        keep = np.argsort(dists, kind="stable")[:ef_construction]
        cand = ids[keep]
        nbrs = rng_prune(vectors[u], cand, vectors[cand], m)
        adj_lists[u] = [int(v) for v in nbrs]
        if record_history:
            for v in adj_lists[u]:
                birth[(u, v)] = t
        for v in adj_lists[u]:
            lst = adj_lists[v]
            lst.append(u)
            if record_history:
                birth[(v, u)] = t
            if len(lst) > m:
                cand_v = np.asarray(lst, dtype=np.int64)
                kept = rng_prune(vectors[v], cand_v, vectors[cand_v], m)
                kept_list = [int(x) for x in kept]
                if record_history:
                    for x in set(lst) - set(kept_list):
                        death[(v, x)] = t
                adj_lists[v] = kept_list

    adj = pack_neighbors([np.asarray(l) for l in adj_lists], m)
    g = FlatGraph(vectors=vectors, adj=adj, entry=int(order[0]))
    if record_history:
        # Drop zero-length intervals (edge born and pruned within the
        # same insertion step — it exists in no reconstructable state).
        edges = [
            e for e in birth if death.get(e, n) > birth[e]
        ]
        g.edge_src = np.asarray([e[0] for e in edges], dtype=np.int32)
        g.edge_dst = np.asarray([e[1] for e in edges], dtype=np.int32)
        g.edge_birth = np.asarray([birth[e] for e in edges], dtype=np.int32)
        g.edge_death = np.asarray(
            [death.get(e, n) for e in edges], dtype=np.int32
        )
    return g
