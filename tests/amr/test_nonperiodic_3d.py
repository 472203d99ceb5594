"""Coverage for non-periodic hierarchies and 3-D advection paths."""

import numpy as np
import pytest

from repro.amr.advection import AdvectionDiffusionSolver
from repro.amr.box import Box
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.stepper import AMRStepper
from repro.errors import HierarchyError


class TestNonPeriodic:
    def make(self, n=32, max_levels=2):
        return AMRHierarchy(
            Box((0, 0), (n - 1, n - 1)), ncomp=1, nghost=2,
            max_levels=max_levels, max_box_size=16, dx0=1.0 / n,
            periodic=False,
        )

    def test_edge_bc_applied_on_fill(self):
        h = self.make(max_levels=1)
        h.levels[0].data.set_from_function(lambda x, y: x, dx=h.dx0)
        h.fill_ghosts(0)
        # Outflow (edge) BC: ghost values replicate the boundary cells.
        for i, box in enumerate(h.levels[0].layout):
            arr = h.levels[0].data.data[i]
            if box.lo[0] == 0:
                np.testing.assert_allclose(arr[0, 1, 2:-2], arr[0, 2, 2:-2])

    def test_blob_advects_out_of_domain(self):
        # With outflow boundaries, mass leaves the domain and total
        # decreases monotonically once the blob hits the edge.
        h = self.make(max_levels=1)
        solver = AdvectionDiffusionSolver((1.0, 0.0), nu=0.0,
                                          blob_center=(0.8, 0.5),
                                          blob_radius=0.1)
        stepper = AMRStepper(h, solver, regrid_interval=0)
        totals = [h.levels[0].data.to_dense(h.level_domain(0)).sum()]
        for _ in range(25):
            stepper.step()
            totals.append(h.levels[0].data.to_dense(h.level_domain(0)).sum())
        assert totals[-1] < 0.7 * totals[0]
        diffs = np.diff(totals)
        assert (diffs <= 1e-9).all()

    def test_refined_nonperiodic_run_stays_finite(self):
        h = self.make(max_levels=2)
        solver = AdvectionDiffusionSolver((1.0, 0.3), nu=0.001,
                                          blob_center=(0.3, 0.5),
                                          blob_radius=0.12, tag_threshold=0.05)
        stepper = AMRStepper(h, solver, regrid_interval=3)
        stepper.run(12)
        dense = h.levels[0].data.to_dense(h.level_domain(0))
        assert np.isfinite(dense).all()

    def test_fine_ghosts_at_domain_edge_edge_extended(self):
        h = self.make(max_levels=2)
        # Refine a patch touching the domain edge.
        mask = np.zeros((32, 32), dtype=bool)
        mask[0:8, 12:20] = True
        h.regrid({0: mask})
        assert h.finest_level == 1
        h.levels[0].data.set_from_function(lambda x, y: y, dx=h.dx0)
        h.levels[1].data.set_from_function(lambda x, y: y, dx=h.dx(1))
        h.fill_ghosts(1)
        for arr in h.levels[1].data.data:
            assert np.isfinite(arr).all()


class TestAdvection3D:
    def test_blob_moves_in_3d(self):
        n = 24
        h = AMRHierarchy(Box((0, 0, 0), (n - 1,) * 3), ncomp=1, nghost=2,
                         max_levels=1, max_box_size=12, dx0=1.0 / n,
                         periodic=True)
        solver = AdvectionDiffusionSolver((1.0, 0.0, 0.0), nu=0.0,
                                          blob_center=(0.3, 0.5, 0.5),
                                          blob_radius=0.12)
        stepper = AMRStepper(h, solver, regrid_interval=0)
        total0 = h.levels[0].data.to_dense(h.level_domain(0)).sum()
        stepper.run(10)
        dense = h.levels[0].data.to_dense(h.level_domain(0))[0]
        assert dense.sum() == pytest.approx(total0, rel=1e-10)
        xs = (np.arange(n) + 0.5) / n
        peak_x = xs[np.argmax(dense.max(axis=(1, 2)))]
        assert peak_x > 0.3 + 0.5 * stepper.time  # moved right


class TestHierarchyErrors:
    def test_average_down_pair_bounds(self):
        h = AMRHierarchy(Box((0, 0), (15, 15)), ncomp=1, nghost=2,
                         max_levels=2, dx0=1 / 16)
        with pytest.raises(HierarchyError):
            h.average_down_pair(0)
        with pytest.raises(HierarchyError):
            h.average_down_pair(1)  # no fine level exists yet
