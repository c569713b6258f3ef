"""iRangeGraph: the query-phase index (paper Sections 3.3–3.4).

The index holds, for every segment-tree layer, the padded adjacency of
that layer's elemental graphs (all segments of a layer are disjoint, so
one ``(n, m)`` array per layer suffices; node ``u``'s row in layer ``i``
is its out-edges inside the unique layer-``i`` segment containing it).

Query phase: for a range ``[L, R]`` we *improvise* the range-dedicated
graph — Algorithm 1 selects up to ``m`` edges for a node from its
``O(log n)`` elemental graphs, prioritizing upper layers (larger
intersection with the query range ⇒ edges more robust against RNG
pruning) and *skipping* any layer whose intersection with the query range
equals its child's (the ``O(m + log n)`` amortized trick). The greedy
beam search runs on this lazily-constructed graph; it expands each node
at most once, so each node's edges are selected at most once per query.

Edge selection walks the root-to-leaf path of ``u`` on plain Python ints:
the current segment is a 0-based ``(lo, hi, layer)`` triple, the child
holding ``u`` follows from ``mid = (lo + hi) // 2``, a layer skip is one
comparison of a query bound against ``mid``, and each scanned row goes
through ``tolist()`` so every range and membership test is on ints.
Distance scoring stays one ``np.dot`` per node in the beam-search kernel:
a batched ``einsum`` rounds differently in float32, which would reorder
the heaps and change the returned ids.

Also implemented here, for the Figure-3 ablation:

* ``skip_layers=False`` — iRangeGraph−: edge selection without layer
  skipping (``O(m log n)`` per node).
* :class:`BasicSearchIndex` — the classical segment-tree answer:
  decompose ``[L, R]`` into canonical segments, run one independent ANN
  search per segment's elemental graph, merge results.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.beam_search import beam_search, top_k
from repro.core.neighbors import (DistanceCounter, adjacency_bytes,
                                  dist_batch)
from repro.core.segment_tree import SegmentTree


@dataclass
class IRangeGraphIndex:
    """Materialized elemental graphs + on-the-fly dedicated-graph search.

    ``vectors`` is in ascending attribute-rank order (row ``i`` = rank
    ``i+1``). ``layer_adj[i]`` is the 0-based padded adjacency of layer
    ``i``; rows of nodes whose leaf lies above layer ``i`` are all
    padding.
    """

    vectors: np.ndarray
    tree: SegmentTree
    layer_adj: list[np.ndarray]
    m: int

    @property
    def n(self) -> int:
        return len(self.vectors)

    # ---------------------------------------------------------- edges
    def select_edges(
        self, u: int, lo: int, hi: int, *, skip_layers: bool = True
    ) -> np.ndarray:
        """Algorithm 1: select up to ``m`` edges for 0-based node ``u``
        restricted to the 1-based query range ``[lo, hi]``.

        With ``skip_layers`` (the paper's efficient variant) a layer is
        skipped whenever the child segment containing ``u`` has the same
        intersection with the query range as the current segment.
        """
        m = self.m
        leaf = self.tree.leaf_size
        lo0, hi0 = lo - 1, hi - 1  # 0-based node-id bounds
        s_lo, s_hi, layer = 0, self.tree.n - 1, 0  # 0-based segment of u
        selected: list[int] = []
        while True:
            is_leaf = s_hi - s_lo < leaf
            if not is_leaf:
                # The child holding u meets the query range exactly where
                # its parent does iff the range does not reach the sibling.
                mid = (s_lo + s_hi) // 2
                if u <= mid:
                    c_lo, c_hi, same = s_lo, mid, hi0 <= mid
                else:
                    c_lo, c_hi, same = mid + 1, s_hi, lo0 > mid
                if skip_layers and same:
                    s_lo, s_hi, layer = c_lo, c_hi, layer + 1
                    continue
            for v in self.layer_adj[layer][u].tolist():
                if v < 0:
                    break
                if lo0 <= v <= hi0 and v not in selected:
                    selected.append(v)
                    if len(selected) == m:
                        return np.asarray(selected, dtype=np.int64)
            if is_leaf or (lo0 <= s_lo and s_hi <= hi0):
                return np.asarray(selected, dtype=np.int64)
            s_lo, s_hi, layer = c_lo, c_hi, layer + 1

    # --------------------------------------------------------- search
    def search(
        self,
        query: np.ndarray,
        lo: int,
        hi: int,
        *,
        beam: int,
        k: int,
        counter: DistanceCounter | None = None,
        skip_layers: bool = True,
        visit_filter=None,
        result_keep=None,
    ) -> np.ndarray:
        """RFANN search on the improvised dedicated graph for ``[lo, hi]``.

        Returns up to ``k`` 1-based ranks, nearest first. ``visit_filter``
        / ``result_keep`` hook in the multi-attribute strategies (they see
        0-based node ids).
        """
        if lo > hi:
            return np.empty(0, dtype=np.int64)
        lo = max(1, lo)
        hi = min(self.n, hi)
        if hi - lo + 1 <= beam:
            # Scanning the whole slice scores no more vectors than a
            # beam-``beam`` search would; for ranges this small the
            # improvised graph can be disconnected, the scan cannot.
            ids = np.arange(lo - 1, hi, dtype=np.int64)
            dists = dist_batch(query, self.vectors[lo - 1 : hi], counter)
            return top_k(ids, dists, k, keep=result_keep) + 1
        # Seed from a few ranks spread over the range: robust against a
        # sparse improvised graph splitting into components.
        entries = np.unique(np.linspace(lo - 1, hi - 1, num=4, dtype=np.int64))
        ids, dists = beam_search(
            query,
            self.vectors,
            # A node is pushed once, so its edges are selected once.
            partial(self.select_edges, lo=lo, hi=hi, skip_layers=skip_layers),
            [int(e) for e in entries],
            beam=beam,
            counter=counter,
            visit_filter=visit_filter,
        )
        return top_k(ids, dists, k, keep=result_keep) + 1

    # --------------------------------------------------------- memory
    def memory_bytes(self) -> dict[str, int]:
        """Memory accounting for Table 2: vectors vs index (edges)."""
        return {
            "vectors": int(self.vectors.nbytes),
            "index": int(sum(adjacency_bytes(a) for a in self.layer_adj)),
        }


class BasicSearchIndex:
    """Ablation baseline: canonical decomposition + independent searches.

    Uses the very same elemental graphs as iRangeGraph but the classical
    segment-tree query pattern: split ``[L, R]`` into ``O(log n)``
    canonical segments, beam-search each segment's elemental graph
    separately, and merge the top-k — no dedicated graph is improvised.
    """

    def __init__(self, index: IRangeGraphIndex) -> None:
        self.index = index

    def search(
        self,
        query: np.ndarray,
        lo: int,
        hi: int,
        *,
        beam: int,
        k: int,
        counter: DistanceCounter | None = None,
    ) -> np.ndarray:
        idx = self.index
        lo = max(1, lo)
        hi = min(idx.n, hi)
        if lo > hi:
            return np.empty(0, dtype=np.int64)
        all_ids: list[np.ndarray] = []
        all_d: list[np.ndarray] = []
        lo0, hi0 = lo - 1, hi - 1
        for seg in idx.tree.decompose(lo, hi):
            adj = idx.layer_adj[seg.layer]
            entry = (seg.lo + seg.hi) // 2 - 1
            ids, dists = beam_search(
                query,
                idx.vectors,
                lambda u, adj=adj: adj[u][adj[u] >= 0],
                [entry],
                beam=beam,
                counter=counter,
            )
            # Boundary leaves may cover out-of-range ranks; filter here.
            keep = (ids >= lo0) & (ids <= hi0)
            all_ids.append(ids[keep])
            all_d.append(dists[keep])
        ids = np.concatenate(all_ids) if all_ids else np.empty(0, dtype=np.int64)
        dists = np.concatenate(all_d) if all_d else np.empty(0)
        # A node can be scored by several segment searches only if it sits
        # in overlapping boundary leaves — dedupe before ranking.
        ids, uniq = np.unique(ids, return_index=True)
        return top_k(ids, dists[uniq], k) + 1
