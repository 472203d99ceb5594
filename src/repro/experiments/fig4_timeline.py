"""Figure 4: demonstration of the analysis placement adaptation policy.

The paper's illustration: at ts=1 and ts=2 the in-transit processors are
idle, so analysis is placed in-transit; at ts=30 they are busy, the
in-situ and in-transit times are estimated, and the analysis is placed
in-situ because it is faster.  We reproduce the scenario with a scripted
workload whose step-30 region carries a multi-step analysis burst, and
report each placement decision with the policy's own reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.actions import Placement
from repro.experiments.common import render_table, single_point_sweep
from repro.hpc.systems import titan
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import CoupledWorkflow
from repro.workflow.metrics import WorkflowResult
from repro.workload.trace import StepRecord, WorkloadTrace

__all__ = ["Fig4Result", "render", "run_fig4", "scripted_trace"]

STEPS = 34
BURST_STEPS = (29, 30, 31)


def scripted_trace() -> WorkloadTrace:
    """A deterministic workload: steady steps with an analysis burst at ~30."""
    nranks = 64
    records = []
    for step in range(1, STEPS + 1):
        cells = 2.0e7
        intensity = 4.0 if step in BURST_STEPS else 0.6
        records.append(
            StepRecord(
                step=step,
                sim_work=cells * 8.0,
                cells=int(cells),
                data_bytes=cells * 8.0,
                memory_bytes=cells * 40.0,
                rank_bytes=np.full(nranks, cells * 40.0 / nranks),
                analysis_intensity=intensity,
            )
        )
    return WorkloadTrace("fig4-scripted", 3, nranks, 8.0, records)


@dataclass(frozen=True)
class Fig4Result:
    """The run plus the engine's per-step decisions."""

    result: WorkflowResult
    reasons: dict[int, str]


def run_fig4() -> Fig4Result:
    """Run adaptive placement on the scripted trace."""
    config = WorkflowConfig(
        mode=Mode.ADAPTIVE_MIDDLEWARE,
        sim_cores=1024,
        staging_cores=64,
        spec=titan(),
        analysis_cost_per_cell=0.55,
    )
    workflow = CoupledWorkflow(config, scripted_trace())
    result = workflow.run()
    reasons = {}
    assert workflow.engine is not None
    for decision in workflow.engine.decisions:
        for action in decision.actions:
            reasons[decision.step] = action.reason
    return Fig4Result(result=result, reasons=reasons)


grid, run_point, merge = single_point_sweep(run_fig4)


def render(outcome: Fig4Result) -> str:
    headers = ["ts", "placement", "policy reasoning"]
    interesting = [1, 2, 3] + list(range(28, 34))
    body = []
    for metric in outcome.result.steps:
        if metric.step not in interesting:
            continue
        body.append([
            str(metric.step),
            metric.placement.value,
            outcome.reasons.get(metric.step, "(off-sample: previous decision kept)"),
        ])
    table = render_table(headers, body, title="Fig. 4: placement decisions")
    placements = [m.placement for m in outcome.result.steps]
    check = (
        placements[0] is Placement.IN_TRANSIT
        and placements[1] is Placement.IN_TRANSIT
        and any(
            placements[s - 1] is Placement.IN_SITU
            for s in range(BURST_STEPS[0], BURST_STEPS[-1] + 2)
        )
    )
    return table + (
        "\n\nscenario check (idle->in-transit at ts=1,2; busy->in-situ near "
        f"ts=30): {'PASS' if check else 'FAIL'}"
    )
