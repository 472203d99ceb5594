"""Unit and property tests for Box geometry."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.errors import GeometryError


def boxes(ndim=2, span=20):
    """Hypothesis strategy for non-empty boxes."""
    lo = st.tuples(*(st.integers(-span, span) for _ in range(ndim)))
    extent = st.tuples(*(st.integers(0, span) for _ in range(ndim)))
    return st.builds(
        lambda l, e: Box(l, tuple(a + b for a, b in zip(l, e))), lo, extent
    )


class TestBasics:
    def test_shape_and_size(self):
        b = Box((0, 0), (7, 3))
        assert b.shape == (8, 4)
        assert b.size == 32
        assert b.ndim == 2

    def test_single_cell(self):
        b = Box((5, 5, 5), (5, 5, 5))
        assert b.size == 1

    def test_empty_box(self):
        b = Box((0, 0), (-1, 5))
        assert b.is_empty()
        assert b.size == 0

    def test_mismatched_ranks_rejected(self):
        with pytest.raises(GeometryError):
            Box((0, 0), (1, 1, 1))

    def test_zero_dim_rejected(self):
        with pytest.raises(GeometryError):
            Box((), ())

    def test_contains_box(self):
        outer = Box((0, 0), (10, 10))
        assert outer.contains_box(Box((2, 2), (5, 5)))
        assert not outer.contains_box(Box((5, 5), (11, 5)))
        assert outer.contains_box(Box((3, 3), (2, 2)))  # empty is contained

    def test_immutability(self):
        b = Box((0, 0), (1, 1))
        with pytest.raises(AttributeError):
            b.lo = (5, 5)


class TestOperations:
    def test_shift(self):
        assert Box((0, 0), (1, 1)).shift((3, -2)) == Box((3, -2), (4, -1))

    def test_grow(self):
        assert Box((2, 2), (5, 5)).grow(2) == Box((0, 0), (7, 7))
        assert Box((0, 0), (7, 7)).grow(-2) == Box((2, 2), (5, 5))

    def test_intersect(self):
        a = Box((0, 0), (5, 5))
        b = Box((3, 3), (8, 8))
        assert a.intersect(b) == Box((3, 3), (5, 5))

    def test_disjoint_intersect_is_empty(self):
        a = Box((0, 0), (2, 2))
        b = Box((5, 5), (7, 7))
        assert a.intersect(b).is_empty()

    def test_refine_coarsen_shapes(self):
        b = Box((1, 2), (3, 4))
        r = b.refine(2)
        assert r == Box((2, 4), (7, 9))
        assert r.size == b.size * 4
        assert r.coarsen(2) == b

    def test_coarsen_floor_semantics(self):
        assert Box((1,), (2,)).coarsen(2) == Box((0,), (1,))
        assert Box((-1,), (0,)).coarsen(2) == Box((-1,), (0,))

    def test_refine_ratio_one_identity(self):
        b = Box((0, 1), (4, 5))
        assert b.refine(1) == b
        assert b.coarsen(1) == b

    def test_bad_ratio_rejected(self):
        with pytest.raises(GeometryError):
            Box((0,), (1,)).refine(0)
        with pytest.raises(GeometryError):
            Box((0,), (1,)).coarsen(0)


class TestSlices:
    def test_slices_into_own_array(self):
        b = Box((2, 3), (4, 6))
        arr = np.zeros(b.shape)
        arr[b.slices()] = 1.0
        assert arr.all()

    def test_slices_with_origin(self):
        origin = Box((0, 0), (9, 9))
        inner = Box((2, 3), (4, 6))
        arr = np.zeros(origin.shape)
        arr[inner.slices(origin=origin)] = 1.0
        assert arr.sum() == inner.size

    def test_slices_outside_origin_raises(self):
        with pytest.raises(GeometryError):
            Box((5, 5), (12, 12)).slices(origin=Box((0, 0), (9, 9)))

class TestSplitting:
    def test_split_axis(self):
        b = Box((0, 0), (7, 7))
        low, high = b.split_axis(0, 4)
        assert low == Box((0, 0), (3, 7))
        assert high == Box((4, 0), (7, 7))
        assert low.size + high.size == b.size

    def test_split_at_boundary_rejected(self):
        b = Box((0, 0), (7, 7))
        with pytest.raises(GeometryError):
            b.split_axis(0, 0)
        with pytest.raises(GeometryError):
            b.split_axis(0, 8)

    def test_chop_respects_max_size(self):
        b = Box((0, 0, 0), (63, 31, 15))
        pieces = b.chop(16)
        assert all(max(p.shape) <= 16 for p in pieces)
        assert sum(p.size for p in pieces) == b.size

    def test_chop_noop_when_small(self):
        b = Box((0,), (7,))
        assert b.chop(8) == [b]

    def test_chop_pieces_disjoint(self):
        b = Box((0, 0), (31, 31))
        pieces = b.chop(8)
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                assert pieces[i].intersect(pieces[j]).is_empty()


class TestProperties:
    @given(boxes())
    def test_refine_then_coarsen_roundtrip(self, b):
        assert b.refine(4).coarsen(4) == b

    @given(boxes(), st.integers(1, 4))
    def test_refine_scales_size(self, b, r):
        assert b.refine(r).size == b.size * r ** b.ndim

    @given(boxes(), boxes())
    def test_intersect_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(boxes(), boxes())
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersect(b)
        if not inter.is_empty():
            assert a.contains_box(inter)
            assert b.contains_box(inter)

    @given(boxes(), st.integers(1, 12))
    def test_chop_partitions_cells(self, b, max_size):
        pieces = b.chop(max_size)
        assert sum(p.size for p in pieces) == b.size
        assert all(max(p.shape) <= max_size for p in pieces)

    @given(boxes(), st.integers(-3, 3))
    def test_grow_shrink_roundtrip(self, b, r):
        grown = b.grow(r)
        if not grown.is_empty():
            assert grown.grow(-r) == b
