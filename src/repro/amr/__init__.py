"""Chombo-like block-structured AMR library.

Implements the substrate the paper's applications are built on: integer
box geometry (:mod:`repro.amr.box`), distributed box layouts
(:mod:`repro.amr.layout`), level data containers with ghost exchange
(:mod:`repro.amr.level`), cell tagging (:mod:`repro.amr.tagging`),
Berger-Rigoutsos-style grid generation (:mod:`repro.amr.clustering`), the
multi-level hierarchy with regridding (:mod:`repro.amr.hierarchy`), the
paper's polytropic-gas application, an Euler solver using an unsplit
Godunov scheme (:mod:`repro.amr.godunov`), and the stepper that drives
it (:mod:`repro.amr.stepper`): every level advances with one global time
step, and average-down keeps coarse and fine data consistent.

All data lives in NumPy arrays; solvers are fully vectorized.  Dimensions
2 and 3 are supported throughout.
"""

from repro.amr.box import Box
from repro.amr.layout import BoxLayout
from repro.amr.level import LevelData
from repro.amr.hierarchy import AMRHierarchy, LevelSpec
from repro.amr.tagging import tag_undivided_difference
from repro.amr.clustering import cluster_tags
from repro.amr.godunov import PolytropicGasSolver
from repro.amr.stepper import AMRStepper, StepStats

__all__ = [
    "AMRHierarchy",
    "AMRStepper",
    "Box",
    "BoxLayout",
    "LevelData",
    "LevelSpec",
    "PolytropicGasSolver",
    "StepStats",
    "cluster_tags",
    "tag_undivided_difference",
]
