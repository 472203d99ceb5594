"""Coverage for non-periodic hierarchies: boundary ghosts and level errors.

Refined non-periodic runs are validated against the exact Riemann
solution in ``test_riemann.py``, and 3-D stepping by the conservation
tests in ``test_godunov.py``.
"""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.hierarchy import AMRHierarchy
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


class TestHierarchyErrors:
    def test_average_down_pair_bounds(self):
        h = AMRHierarchy(Box((0, 0), (15, 15)), ncomp=1, nghost=2,
                         max_levels=2, dx0=1 / 16)
        with pytest.raises(HierarchyError):
            h.average_down_pair(0)
        with pytest.raises(HierarchyError):
            h.average_down_pair(1)  # no fine level exists yet
