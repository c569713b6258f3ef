"""Tests for the segment tree (paper Section 3.2.1)."""
import numpy as np
import pytest

from repro.core.segment_tree import Segment, SegmentTree


@pytest.mark.parametrize("n", [1, 2, 7, 16, 100, 255, 256, 4096])
def test_layers_partition_range(n):
    tree = SegmentTree(n, leaf_size=1)
    for layer_segs in tree.layers:
        covered = []
        for s in layer_segs:
            covered.extend(range(s.lo, s.hi + 1))
        # Each layer covers a subset of [1, n] with no overlaps; layer 0
        # covers everything.
        assert len(covered) == len(set(covered))
        assert set(covered) <= set(range(1, n + 1))
    root_cov = set()
    for s in tree.layers[0]:
        root_cov |= set(range(s.lo, s.hi + 1))
    assert root_cov == set(range(1, n + 1))


@pytest.mark.parametrize("n,leaf", [(16, 4), (100, 8), (256, 32), (257, 32)])
def test_leaf_sizes_respected(n, leaf):
    tree = SegmentTree(n, leaf_size=leaf)
    for layer_segs in tree.layers:
        for s in layer_segs:
            if tree.is_leaf(s):
                assert len(s) <= leaf


def test_num_layers_log(n=4096):
    tree = SegmentTree(n, leaf_size=64)
    assert tree.num_layers == 7  # 4096 / 64 = 64 leaves -> 6 splits


@pytest.mark.parametrize("n", [16, 100, 256])
def test_path_descends_to_leaf(n):
    """The segments holding a rank, one per layer, nest from the root
    down to a leaf: the path Algorithm 1 walks."""
    tree = SegmentTree(n, leaf_size=4)
    for rank in (1, n // 2, n):
        path = [s for layer in tree.layers for s in layer
                if s.lo <= rank <= s.hi]
        assert path[0] == tree.root()
        assert tree.is_leaf(path[-1])
        assert not any(tree.is_leaf(s) for s in path[:-1])
        for parent, child in zip(path, path[1:]):
            assert child.layer == parent.layer + 1
            assert parent.lo <= child.lo and child.hi <= parent.hi
            mid = (parent.lo + parent.hi) // 2
            assert (child.hi == mid) == (rank <= mid)


@pytest.mark.parametrize("n", [16, 64, 100, 255])
def test_decompose_covers_exactly_when_leaf1(n):
    tree = SegmentTree(n, leaf_size=1)
    g = np.random.default_rng(n)
    for _ in range(20):
        lo = int(g.integers(1, n + 1))
        hi = int(g.integers(lo, n + 1))
        segs = tree.decompose(lo, hi)
        covered = sorted(
            r for s in segs for r in range(s.lo, s.hi + 1)
        )
        assert covered == list(range(lo, hi + 1))


def test_decompose_is_logarithmic():
    tree = SegmentTree(4096, leaf_size=1)
    segs = tree.decompose(2, 4095)
    assert len(segs) <= 2 * 12  # 2 log2(n)


def test_decompose_with_leaf_cutoff_supersets_range():
    tree = SegmentTree(100, leaf_size=8)
    segs = tree.decompose(5, 60)
    covered = set(r for s in segs for r in range(s.lo, s.hi + 1))
    assert set(range(5, 61)) <= covered
    # Segments are still pairwise disjoint.
    assert sum(len(s) for s in segs) == len(covered)


def test_decompose_rejects_bad_range():
    tree = SegmentTree(10)
    with pytest.raises(ValueError):
        tree.decompose(0, 5)
    with pytest.raises(ValueError):
        tree.decompose(3, 11)
    with pytest.raises(ValueError):
        tree.decompose(7, 3)


def test_segment_helpers():
    s = Segment(2, 5, 10)
    assert len(s) == 6
    assert s.covered_by(5, 10) and s.covered_by(1, 20)
    assert not s.covered_by(6, 20)
    assert s.intersection(8, 30) == (8, 10)
    lo, hi = s.intersection(20, 30)
    assert lo > hi  # empty


def test_invalid_constructor_args():
    with pytest.raises(ValueError):
        SegmentTree(0)
    with pytest.raises(ValueError):
        SegmentTree(5, leaf_size=0)
