#!/usr/bin/env python
"""A real coupled simulation + visualization run, step by step.

The paper's workflow couples Chombo to its visualization service.  This
example does the same with *real* data:

- the 3-D Polytropic Gas solver advances a blast on an adaptive hierarchy
  (real NumPy Godunov updates);
- after each step its density field goes straight to the analysis, which
  extracts an isosurface with marching tetrahedra and computes block
  entropy -- reporting triangles, surface area, peak density and the
  entropy range per step.

The simulated workflow (staging, placement, adaptation) is what
``examples/quickstart.py`` shows; here the analysis consumes the solver's
actual output.

Run:  python examples/coupled_visualization.py
"""

import numpy as np

from repro.amr import AMRHierarchy, AMRStepper, Box, PolytropicGasSolver
from repro.analysis import block_entropies, extract_isosurface, surface_area

N = 32
STEPS = 12


def main() -> None:
    domain = Box((0, 0, 0), (N - 1, N - 1, N - 1))
    hierarchy = AMRHierarchy(
        domain, ncomp=5, nghost=2, max_levels=2, max_box_size=16,
        dx0=1.0 / N, periodic=True,
    )
    solver = PolytropicGasSolver(tag_threshold=0.06, blast_pressure_jump=25.0)
    stepper = AMRStepper(hierarchy, solver, regrid_interval=4)

    print(f"{'step':>4s} {'cells':>7s} {'tris':>7s} {'area':>7s} "
          f"{'rho max':>8s} {'H range (bits)':>15s}")
    areas, totals = [], []
    for step in range(STEPS):
        stepper.step()
        density = hierarchy.levels[0].data.to_dense(domain)[0]
        iso = float(np.percentile(density, 85))
        verts, tris = extract_isosurface(
            density, iso, spacing=(1 / N, 1 / N, 1 / N)
        )
        entropies = block_entropies(density, (8, 8, 8), bins=64)
        areas.append(surface_area(verts, tris))
        totals.append(density.sum())
        print(
            f"{step:4d} {density.size:7d} {len(tris):7d} "
            f"{areas[-1]:7.3f} {density.max():8.3f} "
            f"{entropies.min():6.2f} - {entropies.max():5.2f}"
        )

    grows = areas[-1] > areas[0]
    conserved = max(totals) - min(totals) < 1e-6 * abs(totals[0])
    verdict = "YES" if grows and conserved else "NO"
    print(f"\nshock surface grows and total density is conserved over "
          f"{STEPS} steps: {verdict}")


if __name__ == "__main__":
    main()
