"""Figure 9 + Eq. 12: adaptive in-transit resource allocation.

The Polytropic Gas workflow on 4,096 simulation cores with 256
preallocated staging cores (configurations as in Section 5.2.1).  At the
start the data is small and ~50 staging cores suffice; as the grid
refines the allocation grows toward the preallocation.  The paper
reports CPU utilization efficiency (Eq. 12) of 87.11 % with adaptive
allocation vs 54.57 % static.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.experiments.common import PAPER, render_table
from repro.hpc.systems import intrepid
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import run_workflow
from repro.workflow.metrics import WorkflowResult
from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace
from repro.workload.trace import WorkloadTrace

__all__ = ["Fig9Result", "polytropic_trace", "render"]

SIM_CORES = 4096
STAGING_CORES = 256
STEPS = 40

# Godunov gas update cost per cell, and an analysis constant placing the
# initial staging demand near the paper's ~50 cores:
# M0 ~ N * c_a / c_s = 4096 * 0.1 / 8 ~ 51.
_SIM_COST = 8.0
_ANALYSIS_COST = 0.1


@lru_cache(maxsize=4)
def polytropic_trace(steps: int = STEPS, seed: int = 21) -> WorkloadTrace:
    """Polytropic-Gas-like workload: strong refinement growth over the run."""
    config = SyntheticAMRConfig(
        steps=steps,
        nranks=SIM_CORES,
        base_cells=4.0e7,
        sim_cost_per_cell=_SIM_COST,
        state_bytes_per_cell=80.0,  # 5 conserved components + scratch
        output_bytes_per_cell=8.0,
        growth=2.2,
        analysis_growth_exponent=1.0,
        analysis_sigma=0.35,
        seed=seed,
    )
    return synthetic_amr_trace(config, name="polytropic-4k")


@dataclass(frozen=True)
class Fig9Result:
    """The figure's two series plus Eq. 12's efficiencies."""

    static: WorkflowResult
    adaptive: WorkflowResult

    @property
    def static_series(self) -> np.ndarray:
        return self.static.staging_cores_series()

    @property
    def adaptive_series(self) -> np.ndarray:
        return self.adaptive.staging_cores_series()


#: Sweep roles, in grid (and :class:`Fig9Result` field) order.
_ROLES = {"static": Mode.STATIC_INTRANSIT, "adaptive": Mode.ADAPTIVE_RESOURCE}


def _run_mode(mode: Mode, steps: int) -> WorkflowResult:
    """One allocation mode on the gas workload (one sweep point)."""
    config = WorkflowConfig(
        mode=mode,
        sim_cores=SIM_CORES,
        staging_cores=STAGING_CORES,
        spec=intrepid(),
        analysis_cost_per_cell=_ANALYSIS_COST,
    )
    return run_workflow(config, polytropic_trace(steps))


def grid() -> list[dict]:
    """Sweep protocol: one point per allocation mode, static first."""
    return [{"role": role, "steps": STEPS} for role in _ROLES]


def run_point(params: dict) -> WorkflowResult:
    """Sweep protocol: run one allocation mode (worker-side)."""
    return _run_mode(_ROLES[params["role"]], params.get("steps", STEPS))


def merge(results: list) -> Fig9Result:
    """Sweep protocol: grid order is (static, adaptive)."""
    static, adaptive = results
    return Fig9Result(static=static, adaptive=adaptive)


def render(result: Fig9Result) -> str:
    adaptive = result.adaptive_series
    static = result.static_series
    headers = ["time step", "static cores", "adaptive cores"]
    body = [
        [str(step + 1), str(int(static[step])), str(int(adaptive[step]))]
        for step in range(0, len(adaptive), max(1, len(adaptive) // 20))
    ]
    series = render_table(headers, body,
                          title="Fig. 9: in-transit cores per time step")
    summary = render_table(
        ["metric", "static", "adaptive", "paper static", "paper adaptive"],
        [
            [
                "utilization efficiency (Eq. 12)",
                f"{result.static.utilization_efficiency * 100:.2f}%",
                f"{result.adaptive.utilization_efficiency * 100:.2f}%",
                f"{PAPER.fig9_utilization_static:.2f}%",
                f"{PAPER.fig9_utilization_adaptive:.2f}%",
            ],
            [
                "end-to-end time (s)",
                f"{result.static.end_to_end_seconds:.1f}",
                f"{result.adaptive.end_to_end_seconds:.1f}",
                "-",
                "-",
            ],
            [
                "idle core-seconds",
                f"{result.static.staging_idle_core_seconds:.0f}",
                f"{result.adaptive.staging_idle_core_seconds:.0f}",
                "-",
                "-",
            ],
        ],
        title="Eq. 12: CPU utilization efficiency",
    )
    return series + "\n\n" + summary
