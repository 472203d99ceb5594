"""Tests for the AMR hierarchy: ghost fill, average-down, regrid."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.coarsefine import restrict
from repro.amr.hierarchy import AMRHierarchy, LevelSpec
from repro.amr.layout import BoxLayout
from repro.amr.level import LevelData
from repro.errors import GeometryError, HierarchyError


def make_hierarchy(**kw):
    defaults = dict(
        domain=Box((0, 0), (31, 31)),
        ncomp=1,
        nghost=2,
        ref_ratio=2,
        max_levels=3,
        max_box_size=16,
        dx0=1.0 / 32,
        periodic=True,
    )
    defaults.update(kw)
    return AMRHierarchy(**defaults)


def central_tags(shape, frac=0.25):
    """A centred square of tags covering ``frac`` of each extent."""
    mask = np.zeros(shape, dtype=bool)
    slc = tuple(slice(int(s * (0.5 - frac / 2)), int(s * (0.5 + frac / 2))) for s in shape)
    mask[slc] = True
    return mask


class TestConstruction:
    def test_base_level_covers_domain(self):
        h = make_hierarchy()
        assert h.finest_level == 0
        assert h.levels[0].layout.total_cells == 32 * 32

    def test_level_domain_refines(self):
        h = make_hierarchy()
        assert h.level_domain(1) == Box((0, 0), (63, 63))
        assert h.dx(1) == pytest.approx(h.dx0 / 2)

    def test_invalid_params(self):
        with pytest.raises(HierarchyError):
            make_hierarchy(max_levels=0)
        with pytest.raises(HierarchyError):
            make_hierarchy(ref_ratio=1)


class TestRegrid:
    def test_regrid_creates_fine_level(self):
        h = make_hierarchy()
        changed = h.regrid({0: central_tags((32, 32))})
        assert changed
        assert h.finest_level == 1
        # Fine level covers at least the refined central tags.
        fine_cells = h.levels[1].layout.total_cells
        assert fine_cells >= (8 * 8) * 4

    def test_regrid_no_tags_no_change(self):
        h = make_hierarchy()
        changed = h.regrid({0: np.zeros((32, 32), dtype=bool)})
        assert not changed
        assert h.finest_level == 0

    def test_regrid_drops_level_when_tags_vanish(self):
        h = make_hierarchy()
        h.regrid({0: central_tags((32, 32))})
        assert h.finest_level == 1
        changed = h.regrid({0: np.zeros((32, 32), dtype=bool)})
        assert changed
        assert h.finest_level == 0

    def test_regrid_wrong_mask_shape_rejected(self):
        h = make_hierarchy()
        with pytest.raises(HierarchyError):
            h.regrid({0: np.zeros((8, 8), dtype=bool)})

    def test_fine_boxes_nested_in_domain(self):
        h = make_hierarchy()
        h.regrid({0: central_tags((32, 32))})
        fine_domain = h.level_domain(1)
        for box in h.levels[1].layout:
            assert fine_domain.contains_box(box)

    def test_three_level_nesting(self):
        h = make_hierarchy(max_levels=3)
        tags0 = central_tags((32, 32), frac=0.5)
        h.regrid({0: tags0})
        tags1 = central_tags((64, 64), frac=0.2)
        h.regrid({0: tags0, 1: tags1})
        assert h.finest_level == 2
        # Proper nesting: every level-2 box, coarsened, inside a level-1 box
        # region (within the union).
        lvl1_union = h.levels[1].layout.boxes
        for box in h.levels[2].layout:
            cbox = box.coarsen(2)
            covered = 0
            for b1 in lvl1_union:
                inter = cbox.intersect(b1)
                if not inter.is_empty():
                    covered += inter.size
            assert covered == cbox.size

    def test_regrid_preserves_data_on_surviving_regions(self):
        h = make_hierarchy()
        tags = central_tags((32, 32), frac=0.4)
        h.regrid({0: tags})
        # Paint recognizable data on the fine level.
        marker = 7.25
        for i in range(len(h.levels[1].layout)):
            h.levels[1].data.valid_view(i)[...] = marker
        # Regrid with the same tags: grids unchanged, data kept.
        h.regrid({0: tags})
        for i in range(len(h.levels[1].layout)):
            np.testing.assert_allclose(h.levels[1].data.valid_view(i), marker)

    def test_new_fine_regions_interpolated_from_coarse(self):
        h = make_hierarchy()
        # Linear profile on the base level.
        h.levels[0].data.set_from_function(lambda x, y: x, dx=h.dx0)
        h.regrid({0: central_tags((32, 32))})
        # Fine data must follow the same linear profile in x.
        spec = h.levels[1]
        dense = spec.data.to_dense()
        cover = spec.layout.covering_box()
        xs = (np.arange(cover.lo[0], cover.hi[0] + 1) + 0.5) * h.dx(1)
        interior = dense[0, 2:-2, 2:-2]
        expected = np.broadcast_to(xs[2:-2, None], interior.shape)
        valid = ~np.isnan(interior)
        np.testing.assert_allclose(interior[valid],
                                   expected[valid], atol=1e-6)


class TestInterlevelData:
    def test_average_down_constant(self):
        h = make_hierarchy()
        h.regrid({0: central_tags((32, 32))})
        h.levels[0].data.fill(1.0)
        for i in range(len(h.levels[1].layout)):
            h.levels[1].data.valid_view(i)[...] = 5.0
        h.average_down()
        dense0 = h.levels[0].data.to_dense(h.level_domain(0))
        # Cells under the fine level are now 5; others stay 1.
        np.testing.assert_allclose(np.unique(dense0), [1.0, 5.0])
        covered = sum(b.size for b in h.levels[1].layout) // 4
        assert (dense0 == 5.0).sum() == covered

    def test_average_down_conserves_integral(self):
        h = make_hierarchy()
        h.regrid({0: central_tags((32, 32))})
        rng = np.random.default_rng(0)
        for i in range(len(h.levels[1].layout)):
            view = h.levels[1].data.valid_view(i)
            view[...] = rng.normal(size=view.shape)
        h.average_down()
        # Integral over covered coarse region equals fine integral / ratio^2.
        fine_sum = sum(
            h.levels[1].data.valid_view(i).sum()
            for i in range(len(h.levels[1].layout))
        )
        coarse_sum = 0.0
        dense0 = h.levels[0].data.to_dense(h.level_domain(0))
        for b in h.levels[1].layout:
            cb = b.coarsen(2)
            coarse_sum += dense0[(slice(None), *cb.slices(origin=h.level_domain(0)))].sum()
        assert coarse_sum == pytest.approx(fine_sum / 4, rel=1e-10)

    def test_average_down_matches_per_box_restrict_exactly(self):
        # NumPy's multi-axis mean sums in a shape-dependent order, so a
        # 2x2x2 box restricted alone can differ in the last bit from the
        # same cells restricted inside a bigger array.  Average-down must
        # agree with per-box restriction on a layout mixing extents 2 and 8.
        h = make_hierarchy(domain=Box((0, 0, 0), (15, 15, 15)), ncomp=2, max_levels=2)
        boxes = [
            Box((0, 0, 0), (7, 7, 7)), Box((8, 0, 0), (9, 1, 1)), Box((8, 2, 0), (9, 3, 1)),
            Box((16, 16, 16), (23, 23, 23)), Box((10, 0, 0), (11, 7, 1)),
            Box((24, 16, 16), (31, 17, 23)), Box((8, 4, 0), (9, 5, 1)),
            Box((0, 8, 0), (7, 15, 7)),
        ]
        layout = BoxLayout(boxes)
        h.levels.append(LevelSpec(layout, LevelData(layout, ncomp=2, nghost=2)))
        rng = np.random.default_rng(3)
        fine = h.levels[1].data
        for i in range(len(boxes)):
            view = fine.valid_view(i)
            view[...] = rng.normal(size=view.shape) * 10.0 ** rng.integers(-3, 4, view.shape)
        h.average_down()
        dense0 = h.levels[0].data.to_dense(h.level_domain(0))
        for i, box in enumerate(boxes):
            want = restrict(fine.valid_view(i), 2)
            got = dense0[(slice(None), *box.coarsen(2).slices(origin=h.level_domain(0)))]
            np.testing.assert_array_equal(got, want)

    def test_fill_ghosts_from_coarse_linear(self):
        h = make_hierarchy()
        h.levels[0].data.set_from_function(lambda x, y: y, dx=h.dx0)
        h.regrid({0: central_tags((32, 32))})
        h.levels[0].data.set_from_function(lambda x, y: y, dx=h.dx0)
        moved = h.fill_ghosts(1)
        assert moved >= 0
        # Ghost cells of fine boxes should match the linear profile.
        spec = h.levels[1]
        for i, box in enumerate(spec.layout):
            grown = box.grow(2)
            arr = spec.data.data[i]
            ys = (np.arange(grown.lo[1], grown.hi[1] + 1) + 0.5) * h.dx(1)
            np.testing.assert_allclose(
                arr[0], np.broadcast_to(ys, arr[0].shape), atol=1e-6
            )

    def test_fill_ghosts_periodic_base(self):
        h = make_hierarchy()
        h.levels[0].data.set_from_function(lambda x, y: np.sin(2 * np.pi * x), dx=h.dx0)
        moved = h.fill_ghosts(0)
        assert moved > 0
        arr = h.levels[0].data.data[0]
        # Low-x ghosts must equal the wrapped high-x interior values.
        box = h.levels[0].layout.boxes[0]
        if box.lo[0] == 0:
            dense = h.levels[0].data.to_dense(h.level_domain(0))
            np.testing.assert_allclose(arr[0, 1, 2:-2], dense[0, -1, box.lo[1]:box.hi[1] + 1],
                                       atol=1e-12)

    def test_total_accounting(self):
        h = make_hierarchy()
        h.regrid({0: central_tags((32, 32))})
        assert h.total_cells() == sum(s.layout.total_cells for s in h.levels)
        assert h.total_bytes() == sum(s.data.nbytes for s in h.levels)
        assert h.rank_bytes().sum() == h.total_bytes()

    def test_ghost_fill_wider_than_periodic_level_rejected(self):
        # Level 1 is 4 cells wide on axis 0, narrower than nghost 5.
        h = make_hierarchy(domain=Box((0, 0), (1, 15)), nghost=5, max_levels=2)
        h.regrid({0: np.ones((2, 16), dtype=bool)})
        assert h.finest_level == 1
        # The coarse-fine plan builder checks before any exchange runs.
        with pytest.raises(GeometryError, match="nghost 5 .* extent 4 on axis 0"):
            h._fill_from_coarser(1)
