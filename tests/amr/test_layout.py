"""Tests for BoxLayout and load balancing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.layout import BoxLayout, load_balance
from repro.amr.level import LevelData
from repro.errors import GeometryError


def exchange_neighbors(layout, index, nghost, periodic_domain=None):
    """``(j, shift)`` of every box image the exchange plan copies into box ``index``.

    Each plan entry copies one buffer column to another.  Labelling every
    column with its box and global cell coordinate, read through the
    per-box views, turns a copy into ``(i, j, shift)``: the shift is the
    destination cell minus the periodic source cell.
    """
    data = LevelData(layout, nghost=nghost)
    data.buffer[0] = np.arange(data.buffer.shape[1])
    box_of = np.zeros(data.buffer.shape[1], dtype=np.int64)
    coord_of = np.zeros((data.buffer.shape[1], layout.ndim), dtype=np.int64)
    for k, arr in enumerate(data.data):
        columns = arr[0].astype(np.int64).ravel()
        box_of[columns] = k
        grown = data.grown_box(k)
        coord_of[columns] = np.indices(grown.shape).reshape(layout.ndim, -1).T + grown.lo
    out = []
    for dst, src in zip(*data._exchange_plan(periodic_domain)):
        if box_of[dst] != index:
            continue
        pair = (int(box_of[src]), tuple((coord_of[dst] - coord_of[src]).tolist()))
        if pair not in out:
            out.append(pair)
    return out


def grid_boxes(n, size=4):
    """A row of n disjoint size^2 boxes."""
    return [Box((i * size, 0), (i * size + size - 1, size - 1)) for i in range(n)]


class TestLoadBalance:
    def test_single_rank_gets_everything(self):
        boxes = grid_boxes(5)
        assert load_balance(boxes, 1) == [0] * 5

    def test_equal_boxes_spread_evenly(self):
        boxes = grid_boxes(8)
        ranks = load_balance(boxes, 4)
        counts = np.bincount(ranks, minlength=4)
        assert (counts == 2).all()

    def test_large_box_isolated(self):
        boxes = [Box((0, 0), (31, 31))] + [
            Box((100 + 4 * i, 0), (100 + 4 * i + 1, 1)) for i in range(4)
        ]
        ranks = load_balance(boxes, 2)
        big_rank = ranks[0]
        # All the small boxes go to the other rank.
        assert all(r != big_rank for r in ranks[1:])

    def test_zero_ranks_rejected(self):
        with pytest.raises(GeometryError):
            load_balance(grid_boxes(2), 0)

    def test_deterministic(self):
        boxes = grid_boxes(7)
        assert load_balance(boxes, 3) == load_balance(boxes, 3)

    @given(st.integers(1, 16), st.integers(1, 6))
    def test_balance_quality_bound(self, nboxes, nranks):
        # LPT guarantee: max load <= mean + max single box size.
        boxes = grid_boxes(nboxes)
        ranks = load_balance(boxes, nranks)
        loads = np.zeros(nranks)
        for b, r in zip(boxes, ranks):
            loads[r] += b.size
        assert loads.max() <= loads.sum() / nranks + max(b.size for b in boxes)


class TestBoxLayout:
    def test_total_cells(self):
        layout = BoxLayout(grid_boxes(3))
        assert layout.total_cells == 3 * 16

    def test_overlap_rejected(self):
        with pytest.raises(GeometryError):
            BoxLayout([Box((0, 0), (3, 3)), Box((2, 2), (5, 5))])

    def test_empty_layout_rejected(self):
        with pytest.raises(GeometryError):
            BoxLayout([])

    def test_empty_box_rejected(self):
        with pytest.raises(GeometryError):
            BoxLayout([Box((0, 0), (-1, 3))])

    def test_mixed_dim_rejected(self):
        with pytest.raises(GeometryError):
            BoxLayout([Box((0, 0), (1, 1)), Box((5, 5, 5), (6, 6, 6))])

    def test_explicit_ranks(self):
        layout = BoxLayout(grid_boxes(3), nranks=2, ranks=[0, 1, 0])
        assert layout.ranks == (0, 1, 0)

    def test_explicit_ranks_validation(self):
        with pytest.raises(GeometryError):
            BoxLayout(grid_boxes(3), nranks=2, ranks=[0, 1])
        with pytest.raises(GeometryError):
            BoxLayout(grid_boxes(3), nranks=2, ranks=[0, 1, 5])

    def test_covering_box(self):
        layout = BoxLayout([Box((0, 0), (3, 3)), Box((10, 2), (12, 8))])
        assert layout.covering_box() == Box((0, 0), (12, 8))

    def test_neighbors_direct(self):
        a = Box((0, 0), (3, 3))
        b = Box((4, 0), (7, 3))
        c = Box((20, 20), (23, 23))
        layout = BoxLayout([a, b, c])
        nbrs = exchange_neighbors(layout, 0, nghost=1)
        assert [j for j, _ in nbrs] == [1]

    def test_neighbors_periodic_wraparound(self):
        domain = Box((0, 0), (7, 7))
        a = Box((0, 0), (3, 7))
        b = Box((4, 0), (7, 7))
        layout = BoxLayout([a, b])
        nbrs = exchange_neighbors(layout, 0, nghost=1, periodic_domain=domain)
        shifts = {shift for j, shift in nbrs if j == 1}
        # b touches a directly on the right and wraps around on the left.
        assert (0, 0) in shifts
        assert (-8, 0) in shifts or (8, 0) in shifts

    def test_self_periodic_image(self):
        # A box spanning the whole domain is its own periodic neighbour.
        domain = Box((0,), (7,))
        layout = BoxLayout([Box((0,), (7,))])
        nbrs = exchange_neighbors(layout, 0, nghost=1, periodic_domain=domain)
        assert any(j == 0 for j, _ in nbrs)
