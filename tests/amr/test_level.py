"""Tests for LevelData: ghost exchange, physical BCs, dense assembly."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.layout import BoxLayout
from repro.amr.level import LevelData
from repro.errors import GeometryError


def two_box_layout():
    """Two 4x8 boxes side by side covering (0,0)-(7,7)."""
    return BoxLayout([Box((0, 0), (3, 7)), Box((4, 0), (7, 7))])


class TestConstruction:
    def test_array_shapes_include_ghosts(self):
        ld = LevelData(two_box_layout(), ncomp=2, nghost=1)
        assert ld.data[0].shape == (2, 6, 10)

    def test_valid_view_shape(self):
        ld = LevelData(two_box_layout(), ncomp=2, nghost=2)
        assert ld.valid_view(0).shape == (2, 4, 8)

    def test_nbytes_counts_ghosts(self):
        ld = LevelData(two_box_layout(), ncomp=1, nghost=1)
        assert ld.nbytes == 2 * 6 * 10 * 8

    def test_invalid_params_rejected(self):
        layout = two_box_layout()
        with pytest.raises(GeometryError):
            LevelData(layout, ncomp=0)
        with pytest.raises(GeometryError):
            LevelData(layout, nghost=-1)


class TestSetFromFunction:
    def test_coordinates_are_cell_centers(self):
        layout = BoxLayout([Box((0,), (3,))])
        ld = LevelData(layout, nghost=0)
        ld.set_from_function(lambda x: x, dx=0.5)
        np.testing.assert_allclose(ld.valid_view(0)[0], [0.25, 0.75, 1.25, 1.75])

    def test_multi_component(self):
        layout = BoxLayout([Box((0, 0), (1, 1))])
        ld = LevelData(layout, ncomp=2, nghost=0)

        def fn(x, y):
            return np.stack([x, y])

        ld.set_from_function(fn)
        assert ld.valid_view(0)[0, 1, 0] == pytest.approx(1.5)
        assert ld.valid_view(0)[1, 0, 1] == pytest.approx(1.5)

    def test_wrong_shape_raises(self):
        layout = BoxLayout([Box((0, 0), (1, 1))])
        ld = LevelData(layout, ncomp=3, nghost=0)
        with pytest.raises(GeometryError):
            ld.set_from_function(lambda x, y: x)


class TestExchange:
    def test_interior_ghosts_filled_from_neighbor(self):
        ld = LevelData(two_box_layout(), nghost=1)
        ld.valid_view(0)[...] = 1.0
        ld.valid_view(1)[...] = 2.0
        ld.exchange()
        # Box 0's high-x ghost column (inside box 1) must now be 2.0.
        arr0 = ld.data[0]
        np.testing.assert_allclose(arr0[0, -1, 1:-1], 2.0)
        arr1 = ld.data[1]
        np.testing.assert_allclose(arr1[0, 0, 1:-1], 1.0)

    def test_exchange_returns_bytes(self):
        ld = LevelData(two_box_layout(), nghost=1)
        moved = ld.exchange()
        assert moved > 0
        assert moved % 8 == 0

    def test_zero_ghost_exchange_noop(self):
        ld = LevelData(two_box_layout(), nghost=0)
        assert ld.exchange() == 0

    def test_periodic_exchange_wraps(self):
        domain = Box((0, 0), (7, 7))
        ld = LevelData(two_box_layout(), nghost=1)
        ld.valid_view(0)[...] = 1.0
        ld.valid_view(1)[...] = 2.0
        ld.exchange(periodic_domain=domain)
        # Box 0's low-x ghost wraps around to box 1's high-x edge.
        arr0 = ld.data[0]
        np.testing.assert_allclose(arr0[0, 0, 1:-1], 2.0)

    def test_exchange_preserves_interior(self):
        ld = LevelData(two_box_layout(), nghost=2)
        rng = np.random.default_rng(0)
        for i in range(2):
            ld.valid_view(i)[...] = rng.normal(size=ld.valid_view(i).shape)
        before = [ld.valid_view(i).copy() for i in range(2)]
        ld.exchange(periodic_domain=Box((0, 0), (7, 7)))
        for i in range(2):
            np.testing.assert_array_equal(ld.valid_view(i), before[i])

    def test_exchange_consistent_with_dense(self):
        # Ghost values must equal the dense assembly sampled at the same
        # periodic-wrapped coordinates.
        domain = Box((0, 0), (7, 7))
        ld = LevelData(two_box_layout(), nghost=1)
        rng = np.random.default_rng(1)
        for i in range(2):
            ld.valid_view(i)[...] = rng.normal(size=ld.valid_view(i).shape)
        dense = ld.to_dense(domain)
        ld.exchange(periodic_domain=domain)
        for i, box in enumerate(ld.layout):
            grown = box.grow(1)
            arr = ld.data[i]
            for ix in range(grown.shape[0]):
                for iy in range(grown.shape[1]):
                    gx = (grown.lo[0] + ix) % 8
                    gy = (grown.lo[1] + iy) % 8
                    assert arr[0, ix, iy] == pytest.approx(dense[0, gx, gy])


    def test_ghosts_wider_than_periodic_domain_rejected(self):
        # Only the -e/0/+e images are used, so with nghost 4 on a 3-cell
        # periodic axis the outermost ghost on each side would stay stale.
        domain = Box((0,), (2,))
        ld = LevelData(BoxLayout([domain]), nghost=4)
        with pytest.raises(GeometryError, match="nghost 4 .* extent 3 on axis 0"):
            ld.exchange(periodic_domain=domain)

    def test_ghosts_as_wide_as_periodic_domain_fill_every_cell(self):
        domain = Box((0,), (2,))
        ld = LevelData(BoxLayout([domain]), nghost=3)
        ld.valid_view(0)[0] = [1.0, 2.0, 3.0]
        ld.exchange(periodic_domain=domain)
        np.testing.assert_array_equal(ld.data[0][0], [1, 2, 3] * 3)


class TestFillPhysical:
    def test_edge_mode_copies_boundary(self):
        layout = BoxLayout([Box((0, 0), (3, 3))])
        ld = LevelData(layout, nghost=1)
        ld.valid_view(0)[...] = np.arange(16, dtype=float).reshape(4, 4)
        ld.fill_physical(Box((0, 0), (3, 3)), mode="edge")
        arr = ld.data[0]
        np.testing.assert_allclose(arr[0, 0, 1:-1], arr[0, 1, 1:-1])
        np.testing.assert_allclose(arr[0, -1, 1:-1], arr[0, -2, 1:-1])

    def test_constant_mode(self):
        layout = BoxLayout([Box((0, 0), (3, 3))])
        ld = LevelData(layout, nghost=1)
        ld.buffer[...] = 5.0
        ld.fill_physical(Box((0, 0), (3, 3)), mode="constant", value=-1.0)
        arr = ld.data[0]
        assert (arr[0, 0, :] == -1.0).all()

    def test_interior_face_untouched(self):
        # Box 0's high-x face is interior (bordering box 1), so physical
        # fill must not touch it.
        ld = LevelData(two_box_layout(), nghost=1)
        ld.buffer[...] = 3.0
        ld.data[0][0, -1, :] = 7.0
        ld.fill_physical(Box((0, 0), (7, 7)), mode="constant", value=0.0)
        assert (ld.data[0][0, -1, 1:-1] == 7.0).all()

    def test_unknown_mode_rejected(self):
        ld = LevelData(two_box_layout(), nghost=1)
        with pytest.raises(GeometryError):
            ld.fill_physical(Box((0, 0), (7, 7)), mode="bogus")


class TestDataMovement:
    def test_to_dense_assembles_full_level(self):
        ld = LevelData(two_box_layout(), nghost=1)
        ld.valid_view(0)[...] = 1.0
        ld.valid_view(1)[...] = 2.0
        dense = ld.to_dense(Box((0, 0), (7, 7)))
        assert dense.shape == (1, 8, 8)
        np.testing.assert_allclose(dense[0, :4], 1.0)
        np.testing.assert_allclose(dense[0, 4:], 2.0)

    def test_to_dense_uncovered_filled(self):
        layout = BoxLayout([Box((0, 0), (1, 1))])
        ld = LevelData(layout)
        dense = ld.to_dense(Box((0, 0), (3, 3)), fill=np.nan)
        assert np.isnan(dense[0, 3, 3])
        assert not np.isnan(dense[0, 0, 0])

    def test_copy_overlap_from(self):
        old = LevelData(two_box_layout(), nghost=1)
        old.valid_view(0)[...] = 1.0
        old.valid_view(1)[...] = 2.0
        new_layout = BoxLayout([Box((2, 0), (5, 7))])
        new = LevelData(new_layout, nghost=1)
        new.copy_overlap_from(old)
        dense = new.to_dense()
        np.testing.assert_allclose(dense[0, :2], 1.0)
        np.testing.assert_allclose(dense[0, 2:], 2.0)

    def test_copy_overlap_ncomp_mismatch(self):
        a = LevelData(two_box_layout(), ncomp=1)
        b = LevelData(two_box_layout(), ncomp=2)
        with pytest.raises(GeometryError):
            a.copy_overlap_from(b)

    def test_rank_bytes_sums_to_total(self):
        layout = BoxLayout(
            [Box((0, 0), (3, 7)), Box((4, 0), (7, 7))], nranks=2, ranks=[0, 1]
        )
        ld = LevelData(layout, nghost=1)
        rb = ld.rank_bytes()
        assert rb.sum() == ld.nbytes
        assert (rb > 0).all()


class TestBufferCoherence:
    """Every per-box array is a view of the one level buffer."""

    def mixed_layout(self):
        # Two shapes, interleaved in layout order, so groups reorder boxes.
        return BoxLayout([
            Box((0, 0), (3, 3)), Box((4, 0), (9, 3)), Box((0, 4), (3, 7)),
            Box((4, 4), (9, 7)), Box((10, 0), (13, 7)),
        ])

    def test_views_partition_the_buffer(self):
        ld = LevelData(self.mixed_layout(), ncomp=3, nghost=2)
        ld.buffer[...] = np.arange(ld.buffer.size).reshape(ld.buffer.shape)
        seen = []
        for i, arr in enumerate(ld.data):
            assert np.shares_memory(arr, ld.buffer)
            assert arr.shape == (3, *ld.grown_box(i).shape)
            # Component c of every view sits in buffer row c.
            rows = arr.reshape(3, -1) // ld.buffer.shape[1]
            assert (rows == np.arange(3)[:, None]).all()
            seen.append(arr[0].ravel())
        # Each buffer column belongs to exactly one box: no overlap, no gap.
        np.testing.assert_array_equal(np.sort(np.concatenate(seen)), ld.buffer[0])
        for indices, view in ld.groups:
            assert np.shares_memory(view, ld.buffer)
            for slot, i in enumerate(indices):
                np.testing.assert_array_equal(view[:, slot], ld.data[i])

    def test_in_place_writes_reach_the_next_exchange(self):
        domain = Box((0, 0), (13, 7))
        ld = LevelData(self.mixed_layout(), ncomp=2, nghost=1)
        ld.exchange(periodic_domain=domain)
        # Whole ghosted arrays written in place, or rewritten from an
        # expression, are what the next exchange reads.
        ld.data[0][...] = np.full(ld.data[0].shape, 3.0)
        for arr in ld.data[1:]:
            arr[...] = 0.5 * arr + 0.25
        ld.exchange(periodic_domain=domain)
        dense = ld.to_dense(domain)
        np.testing.assert_array_equal(dense[:, :4, :4], 3.0)
        np.testing.assert_array_equal(dense[:, 4:, :], 0.25)
        # Box 1 (x 4..9, y 0..3) reads box 0's valid column x=3 in its low-x ghosts.
        np.testing.assert_array_equal(ld.data[1][:, 0, 1:-1], 3.0)

    def test_fresh_regrid_ghosts_are_zero(self):
        from repro.amr.hierarchy import AMRHierarchy

        h = AMRHierarchy(Box((0, 0), (15, 15)), ncomp=2, nghost=2, max_levels=2,
                         max_box_size=4)
        h.levels[0].data.buffer[...] = 7.0
        h.regrid({0: np.eye(16, dtype=bool)})
        fine = h.levels[1].data
        assert len(fine.layout) > 1
        for i in range(len(fine.layout)):
            arr = fine.data[i].copy()
            np.testing.assert_array_equal(fine.valid_view(i), 7.0)
            arr[(slice(None), *(slice(2, -2) for _ in range(2)))] = 0.0
            assert not arr.any()
