"""Cross-layer adaptations for dynamic data management in coupled scientific workflows.

A Python reproduction of Jin et al., "Using Cross-Layer Adaptations for
Dynamic Data Management in Large Scale Coupled Scientific Workflows"
(SC '13).  The package provides:

- :mod:`repro.hpc` -- a discrete-event simulated HPC machine (per-node
  shape, interconnect with bandwidth sharing, Intrepid/Titan presets) that
  stands in for the leadership systems used in the paper.
- :mod:`repro.amr` -- a Chombo-like block-structured AMR library with real
  advection-diffusion and polytropic-gas (Euler/Godunov) solvers.
- :mod:`repro.analysis` -- in-situ/in-transit analysis kernels: marching
  tetrahedra isosurface extraction, block entropy,
  downsampling operators, compression and fidelity metrics.
- :mod:`repro.staging` -- the in-transit staging area standing in for
  the paper's staging service: a resizable pool of staging cores that
  ingests data over the simulated network under a memory limit, with
  bounded retry on faults.
- :mod:`repro.workload` -- workload traces captured from real AMR runs,
  trace scaling and a synthetic AMR workload generator.
- :mod:`repro.core` -- the paper's contribution: the autonomic Monitor /
  Adaptation Engine / Adaptation Policies stack with per-layer policies
  (application, middleware, resource) and the combined root-leaf
  cross-layer policy.
- :mod:`repro.workflow` -- the coupled simulation + analysis workflow
  driver and its metrics (time-to-solution, overhead, data movement,
  utilization efficiency).
- :mod:`repro.experiments` -- one module per figure/table of the paper's
  evaluation section.
"""

from repro._version import __version__

__all__ = ["__version__"]
