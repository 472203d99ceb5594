"""AMR time stepping: couples an application kernel to the hierarchy.

:class:`AMRStepper` drives the application solver
(:class:`~repro.amr.godunov.PolytropicGasSolver`) through the Chombo step
cycle -- ghost fill, level-wide advance, average-down, periodic regrid --
and records per-step :class:`StepStats` consumed by the workload-capture
layer.

Simplification vs Chombo (documented in DESIGN.md): all levels advance
with the same global time step, and :meth:`AMRHierarchy.average_down`
re-imposes coarse-fine consistency each step in place of flux
correction at coarse-fine boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.amr.hierarchy import AMRHierarchy
from repro.amr.level import LevelData
from repro.errors import HierarchyError

__all__ = ["AMRApplication", "AMRStepper", "StepStats"]

# Solver scratch arrays (reconstruction, fluxes) roughly double the live
# state during an update; used by the memory estimate.
_TEMPORARY_FACTOR = 1.0


class AMRApplication(Protocol):
    """What a solver must provide to be driven by :class:`AMRStepper`."""

    nghost: int

    def initialize(self, hierarchy: AMRHierarchy) -> None: ...

    def stable_dt(self, hierarchy: AMRHierarchy) -> float: ...

    def advance_boxes(self, level: LevelData, dx: float, dt: float) -> None: ...

    def tag_cells(self, dense: np.ndarray, level: int, dx: float) -> np.ndarray: ...

    def work_per_cell(self) -> float: ...


@dataclass
class StepStats:
    """Everything the monitor/workload layers need from one time step."""

    step: int
    time: float
    dt: float
    cells_per_level: tuple[int, ...]
    total_cells: int
    state_bytes: int
    memory_bytes: int  # state + solver temporaries estimate
    rank_bytes: np.ndarray  # per virtual rank, state only
    halo_bytes: int
    regridded: bool
    work_units: float  # cells * relative per-cell cost
    boxes_per_level: tuple[int, ...] = field(default=())

    @property
    def peak_rank_bytes(self) -> int:
        """Largest per-rank state footprint this step (Figure 1's metric)."""
        return int(self.rank_bytes.max())


class AMRStepper:
    """Runs an application on a hierarchy, one step at a time.

    Parameters
    ----------
    hierarchy:
        The grid hierarchy; its ``ncomp``/``nghost`` must match the solver.
    app:
        The application kernel.
    regrid_interval:
        Steps between regrids (Chombo's ``regrid_interval``); 0 disables.
    initialize:
        Call ``app.initialize`` and do an initial regrid immediately.
    """

    def __init__(
        self,
        hierarchy: AMRHierarchy,
        app: AMRApplication,
        regrid_interval: int = 4,
        initialize: bool = True,
    ):
        if regrid_interval < 0:
            raise HierarchyError(f"regrid_interval must be >= 0, got {regrid_interval}")
        self.hierarchy = hierarchy
        self.app = app
        self.regrid_interval = int(regrid_interval)
        self.step_count = 0
        self.time = 0.0
        self.history: list[StepStats] = []
        if initialize:
            app.initialize(hierarchy)
            if self.regrid_interval and hierarchy.max_levels > 1:
                # Initial grids: iterate so fine levels appear one at a time.
                for _ in range(hierarchy.max_levels - 1):
                    if not self._do_regrid():
                        break
            # Make covered coarse data consistent with the fine solution, so
            # composite functionals (mass, energy) are well-defined from
            # step 0 onward.
            hierarchy.average_down()

    # -- stepping ---------------------------------------------------------

    def step(self) -> StepStats:
        """Advance the whole hierarchy by one (global) time step."""
        h = self.hierarchy
        dt = self.app.stable_dt(h)
        halo = 0
        for level in range(len(h.levels)):
            halo += h.fill_ghosts(level)
        work = 0.0
        for level, spec in enumerate(h.levels):
            # Looked up per call, so wrappers set on the instance see it.
            self.app.advance_boxes(spec.data, h.dx(level), dt)
            work += spec.layout.total_cells * self.app.work_per_cell()
        h.average_down()
        self.step_count += 1
        self.time += dt

        regridded = False
        if self.regrid_interval and self.step_count % self.regrid_interval == 0:
            regridded = self._do_regrid()

        stats = self._collect(dt, halo, regridded, work)
        self.history.append(stats)
        return stats

    def run(self, nsteps: int) -> list[StepStats]:
        """Advance ``nsteps`` steps; returns their stats."""
        return [self.step() for _ in range(nsteps)]

    # -- internals ----------------------------------------------------------

    def _do_regrid(self) -> bool:
        h = self.hierarchy
        masks: dict[int, np.ndarray] = {}
        for level in range(min(len(h.levels), h.max_levels - 1)):
            domain = h.level_domain(level)
            dense = h.levels[level].data.to_dense(domain, fill=np.nan)
            masks[level] = self.app.tag_cells(dense, level, h.dx(level))
        return h.regrid(masks)

    def _collect(self, dt: float, halo: int, regridded: bool, work: float) -> StepStats:
        h = self.hierarchy
        cells = tuple(spec.layout.total_cells for spec in h.levels)
        state_bytes = h.total_bytes()
        return StepStats(
            step=self.step_count,
            time=self.time,
            dt=dt,
            cells_per_level=cells,
            total_cells=sum(cells),
            state_bytes=state_bytes,
            memory_bytes=int(state_bytes * (1 + _TEMPORARY_FACTOR)),
            rank_bytes=h.rank_bytes(),
            halo_bytes=halo,
            regridded=regridded,
            work_units=work,
            boxes_per_level=tuple(len(spec.layout) for spec in h.levels),
        )
