"""Index memory accounting (Table 2).

The paper reports the total resident footprint per method; the footprint
minus the raw-vector bytes is the index size. We account deterministically
from the data structures themselves: 4 bytes per stored (padded) edge
slot, 4 bytes per float32 vector component, plus per-method auxiliary
arrays (SeRF edge intervals, bucket boundaries, ...). Methods expose
``memory_bytes() -> {"vectors": ..., "index": ...}``.
"""
from __future__ import annotations


def footprint_mb(mem: dict[str, int]) -> float:
    """Total footprint (vectors + index) in MiB."""
    return (mem.get("vectors", 0) + mem.get("index", 0)) / (1 << 20)
