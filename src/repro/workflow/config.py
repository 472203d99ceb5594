"""Workflow execution configuration.

:class:`Mode` enumerates the paper's experimental configurations; a
:class:`WorkflowConfig` pins the machine, partition sizes, analysis cost
model and user inputs for one run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.mechanisms import Layer
from repro.core.preferences import UserHints, UserPreferences
from repro.errors import WorkflowError
from repro.hpc.systems import SystemSpec, titan

__all__ = ["Mode", "WorkflowConfig"]


class Mode(enum.Enum):
    """Execution configurations evaluated in the paper, plus the
    traditional post-processing baseline its introduction motivates
    against ("traditional post-processing data analysis approach based
    on disk I/O")."""

    POST_PROCESSING = "post_processing"  # write to PFS, analyze after the run
    STATIC_INSITU = "static_insitu"  # Fig. 7 "InSitu"
    STATIC_INTRANSIT = "static_intransit"  # Fig. 7 "InTransit"
    ADAPTIVE_APPLICATION = "adaptive_application"  # Section 5.2.1
    ADAPTIVE_MIDDLEWARE = "adaptive_middleware"  # Fig. 7 "Adapt" / "Local"
    ADAPTIVE_RESOURCE = "adaptive_resource"  # Fig. 9
    GLOBAL = "global"  # Fig. 10 "Global" (cross-layer)

    @property
    def adaptive_layers(self) -> set[Layer] | None:
        """Engine layer set for local modes; None for global; empty for static."""
        return {
            Mode.POST_PROCESSING: set(),
            Mode.STATIC_INSITU: set(),
            Mode.STATIC_INTRANSIT: set(),
            Mode.ADAPTIVE_APPLICATION: {Layer.APPLICATION},
            Mode.ADAPTIVE_MIDDLEWARE: {Layer.MIDDLEWARE},
            Mode.ADAPTIVE_RESOURCE: {Layer.RESOURCE},
            Mode.GLOBAL: None,
        }[self]


@dataclass(frozen=True)
class WorkflowConfig:
    """One workflow run's knobs.

    The cost model: simulation work comes from the trace; a step's
    analysis costs ``cells * analysis_cost_per_cell`` work units
    (marching cubes is a single sweep, far cheaper per cell than the
    multi-stage solver update); an in-situ reduction pass costs
    ``cells * reduce_cost_per_cell``.  ``insitu_memory_factor`` is the
    per-byte headroom in-situ analysis needs on the peak rank.
    """

    mode: Mode
    sim_cores: int
    staging_cores: int
    spec: SystemSpec = field(default_factory=titan)
    analysis_cost_per_cell: float = 0.5
    reduce_cost_per_cell: float = 0.02
    insitu_memory_factor: float = 1.0
    # Enable the paper's hybrid (in-situ + in-transit) placement option in
    # the middleware policy.
    hybrid_placement: bool = False
    # Systematic misestimation injector (1.0 = unbiased): multiplies every
    # analysis-time estimate the Monitor hands the policies.  Used by the
    # estimator-sensitivity ablation.
    estimator_bias: float = 1.0
    preferences: UserPreferences = field(default_factory=UserPreferences)
    hints: UserHints = field(default_factory=UserHints)

    def __post_init__(self) -> None:
        if self.sim_cores < 1 or self.staging_cores < 1:
            raise WorkflowError("core counts must be >= 1")
        if self.analysis_cost_per_cell < 0 or self.reduce_cost_per_cell < 0:
            raise WorkflowError("cost-per-cell values must be >= 0")
        if self.insitu_memory_factor < 0:
            raise WorkflowError("insitu_memory_factor must be >= 0")
        if self.estimator_bias <= 0:
            raise WorkflowError("estimator_bias must be positive")
