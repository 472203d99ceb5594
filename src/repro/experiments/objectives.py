"""Objective comparison: what each user preference trades away.

Not a paper figure, but the direct consequence of its user-preference
design (Section 3 lists minimizing time-to-solution, minimizing data
movement and maximizing resource utilization as selectable objectives):
the same workload under each global-adaptation objective, reported across
every metric -- a small Pareto view of the cross-layer design space.
"""

from __future__ import annotations

from repro.core.actions import Placement
from repro.core.preferences import Objective, UserPreferences
from repro.experiments.common import (
    ANALYSIS_COST_PER_CELL,
    SCALES,
    advection_trace,
    default_hints,
    render_table,
)
from repro.hpc.systems import titan
from repro.units import format_bytes, format_seconds
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import run_workflow
from repro.workflow.metrics import WorkflowResult

__all__ = ["render"]

OBJECTIVES = (
    Objective.MINIMIZE_TIME_TO_SOLUTION,
    Objective.MINIMIZE_DATA_MOVEMENT,
    Objective.MAXIMIZE_RESOURCE_UTILIZATION,
)


def _run_objective(objective: Objective, scale_index: int) -> WorkflowResult:
    """Global adaptation under one objective (one sweep point)."""
    scale = SCALES[scale_index]
    config = WorkflowConfig(
        mode=Mode.GLOBAL,
        sim_cores=scale.sim_cores,
        staging_cores=scale.staging_cores,
        spec=titan(),
        analysis_cost_per_cell=ANALYSIS_COST_PER_CELL,
        preferences=UserPreferences(objective=objective),
        hints=default_hints(),
    )
    return run_workflow(config, advection_trace(scale))


def grid() -> list[dict]:
    """Sweep protocol: one point per user objective."""
    return [{"objective": objective.value, "scale_index": 1}
            for objective in OBJECTIVES]


def run_point(params: dict) -> WorkflowResult:
    """Sweep protocol: run one objective (worker-side)."""
    return _run_objective(Objective(params["objective"]),
                          params.get("scale_index", 1))


def merge(results: list) -> dict[Objective, WorkflowResult]:
    """Sweep protocol: grid order matches :data:`OBJECTIVES`."""
    return dict(zip(OBJECTIVES, results))


def render(results: dict[Objective, WorkflowResult]) -> str:
    headers = ["objective", "end-to-end", "overhead", "moved",
               "utilization", "energy", "in-situ steps"]
    rows = []
    for objective, r in results.items():
        rows.append([
            objective.value,
            format_seconds(r.end_to_end_seconds),
            format_seconds(r.overhead_seconds),
            format_bytes(r.data_moved_bytes),
            f"{r.utilization_efficiency * 100:.1f}%",
            f"{r.energy_joules / 1e9:.2f} GJ",
            str(r.placement_counts()[Placement.IN_SITU]),
        ])
    return render_table(headers, rows,
                        title="User objectives compared (global adaptation, 4K cores)")
