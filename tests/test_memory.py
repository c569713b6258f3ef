"""Tests for memory accounting (Table 2 bookkeeping)."""
from repro.eval.memory import footprint_mb


def test_footprint_mb():
    mem = {"vectors": 1 << 20, "index": 1 << 20}
    assert footprint_mb(mem) == 2.0


def test_footprint_missing_keys():
    assert footprint_mb({}) == 0.0


def test_method_accounting_consistency(irange_index, whole_graph,
                                       small_data):
    """iRangeGraph stores log-many layers; one flat graph stores one —
    index bytes must reflect that ordering (Table 2's shape)."""
    ir = irange_index.memory_bytes()
    assert ir["vectors"] == small_data[0].nbytes
    layers = irange_index.tree.num_layers
    assert ir["index"] == layers * whole_graph.adj.nbytes
