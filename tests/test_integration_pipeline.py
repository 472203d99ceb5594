"""End-to-end integration: the real solver feeding the real analysis.

Runs the actual NumPy Godunov solver on an adaptive hierarchy and hands
each step's density field to the marching-tetrahedra consumer, asserting
physical invariants of what the analysis sees.
"""

import numpy as np
import pytest

from repro.amr import AMRHierarchy, AMRStepper, Box, PolytropicGasSolver
from repro.analysis import extract_isosurface, surface_area
from repro.analysis.isosurface import surface_stats

N = 24
STEPS = 8


@pytest.fixture(scope="module")
def analyzed():
    domain = Box((0, 0, 0), (N - 1, N - 1, N - 1))
    hierarchy = AMRHierarchy(domain, ncomp=5, nghost=2, max_levels=2,
                             max_box_size=12, dx0=1.0 / N, periodic=True)
    solver = PolytropicGasSolver(tag_threshold=0.06, blast_pressure_jump=25.0)
    stepper = AMRStepper(hierarchy, solver, regrid_interval=4)

    records = []
    for _ in range(STEPS):
        stepper.step()
        density = hierarchy.levels[0].data.to_dense(
            hierarchy.level_domain(0))[0]
        iso = float(np.percentile(density, 85))
        verts, tris = extract_isosurface(density, iso, spacing=(1 / N,) * 3)
        records.append({
            "n_tris": len(tris),
            "area": surface_area(verts, tris),
            "mesh": surface_stats(verts, tris),
            "rho_total": density.sum(),
        })
    return records


class TestCoupledPipeline:
    def test_isosurfaces_are_watertight(self, analyzed):
        for record in analyzed:
            if record["n_tris"]:
                assert record["mesh"].closed

    def test_shock_surface_grows(self, analyzed):
        areas = [a["area"] for a in analyzed]
        assert areas[-1] > areas[0]

    def test_mass_conserved_across_pipeline(self, analyzed):
        # The analysis side sees the same (conserved) total density the
        # solver maintains on the periodic domain.
        totals = [a["rho_total"] for a in analyzed]
        assert max(totals) - min(totals) < 1e-6 * abs(totals[0])
