"""Trigger sweep: monitoring overhead vs adaptation lag across policies.

Not a figure of the paper -- the cross-layer loop's natural extension
(ROADMAP item 5): replace the Monitor's fixed sampling interval with the
trigger-detection policies of :mod:`repro.workflow.triggers` and map the
trade-off they buy.  Each point runs the quickstart-scale workload under
one registered trigger policy, fault-free and under the PR 4 ``blackout``
scenario, and reports

- **monitor cost** -- full snapshots times ranks touched, plus the
  bounded percentile-sampling budget the policy spent on indicators;
- **adaptation lag** -- the mean age (in steps) of the decision in
  effect, i.e. how stale the settings the off-sample steps reused were;
- **currency regret** -- the end-to-end (Eq. 6) delta against the
  ``fixed-interval`` baseline of the same scenario, plus the ledger's
  counterfactual placement regret.

``grid()/run_point()/merge()`` follow the sweep protocol, so ``python
-m repro run-all --only fig_triggers --jobs 2`` fans the points over
workers with a deterministic, grid-ordered merge; ``python -m repro
triggers`` renders the same table for one scenario interactively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ExperimentError
from repro.experiments.common import render_table
from repro.faults import build_scenario
from repro.hpc.systems import titan
from repro.observability import PredictionLedger, placement_regret
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import CoupledWorkflow, run_workflow
from repro.workflow.triggers import TRIGGER_POLICIES, build_trigger
from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace
from repro.workload.trace import WorkloadTrace

__all__ = [
    "FigTriggersResult",
    "TriggerRow",
    "grid",
    "merge",
    "render",
    "run_point",
]

SIM_CORES = 1024
STAGING_CORES = 64
STEPS = 20
SEED = 42

#: Sweep scenarios, grid order: fault-free first, then the PR 4 blackout.
SCENARIO_NAMES = ("none", "blackout")
#: The trigger policies swept, in registry order (fixed-interval first --
#: the per-scenario baseline the relative columns compare against).
POLICY_NAMES = tuple(TRIGGER_POLICIES)
#: Self-calibration cadence every swept policy runs with.
RECALIBRATE_EVERY = 5


@lru_cache(maxsize=4)
def _workload(steps: int = STEPS) -> WorkloadTrace:
    """The quickstart-scale AMR workload every point replays."""
    return synthetic_amr_trace(
        SyntheticAMRConfig(
            steps=steps,
            nranks=SIM_CORES,
            base_cells=5e7,
            sim_cost_per_cell=8.0,
            growth=2.0,
            analysis_growth_exponent=0.5,
            seed=SEED,
        ),
        name="trace-triggers",
    )


def _config() -> WorkflowConfig:
    return WorkflowConfig(
        mode=Mode.GLOBAL,
        sim_cores=SIM_CORES,
        staging_cores=STAGING_CORES,
        spec=titan(),
        analysis_cost_per_cell=0.45,
    )


@lru_cache(maxsize=4)
def _horizon(steps: int = STEPS) -> float:
    """Fault-free, trigger-free end-to-end time: the scenario horizon."""
    return run_workflow(_config(), _workload(steps)).end_to_end_seconds


@dataclass(frozen=True)
class TriggerRow:
    """One (policy, scenario) point's overhead/lag/quality numbers."""

    policy: str
    scenario: str
    end_to_end_seconds: float
    data_moved_bytes: float
    snapshots: int  # full OperationalState snapshots assembled
    fires: int  # trigger verdicts that requested adaptation
    budget_used: int  # per-rank indicator probes spent
    monitor_cost: int  # snapshots * nranks + budget_used
    mean_lag_steps: float  # mean age of the decision in effect
    regret_seconds: float  # ledger counterfactual placement regret


@dataclass(frozen=True)
class FigTriggersResult:
    """All swept rows, grid order (scenario-major, policy-minor)."""

    rows: tuple[TriggerRow, ...]

    def row(self, policy: str, scenario: str) -> TriggerRow:
        for row in self.rows:
            if row.policy == policy and row.scenario == scenario:
                return row
        raise ExperimentError(f"no row for {policy!r} x {scenario!r}")


def grid() -> list[dict]:
    """Sweep protocol: scenario-major, policy-minor (baseline first)."""
    return [
        {"policy": policy, "scenario": scenario, "steps": STEPS}
        for scenario in SCENARIO_NAMES
        for policy in POLICY_NAMES
    ]


def run_point(params: dict) -> TriggerRow:
    """Sweep protocol: one policy under one scenario (worker-side)."""
    policy = params["policy"]
    scenario = params["scenario"]
    steps = int(params.get("steps", STEPS))
    trace = _workload(steps)
    plan = None
    if scenario != "none":
        plan = build_scenario(
            scenario,
            horizon=_horizon(steps),
            seed=0,
            staging_cores=STAGING_CORES,
            steps=steps,
        )
    ledger = PredictionLedger()
    workflow = CoupledWorkflow(
        _config(),
        trace,
        ledger=ledger,
        faults=plan,
        trigger=build_trigger(policy, recalibrate_every=RECALIBRATE_EVERY),
    )
    result = workflow.run()
    monitor = workflow.monitor
    sampled = monitor.history
    lags = []
    for step in range(1, steps + 1):
        newest = max((s for s in sampled if s <= step), default=step)
        lags.append(step - newest)
    snapshots = len(sampled)
    budget = monitor.sampling_budget_used
    return TriggerRow(
        policy=policy,
        scenario=scenario,
        end_to_end_seconds=result.end_to_end_seconds,
        data_moved_bytes=result.data_moved_bytes,
        snapshots=snapshots,
        fires=monitor.trigger_fires,
        budget_used=budget,
        monitor_cost=snapshots * trace.nranks + budget,
        mean_lag_steps=sum(lags) / len(lags),
        regret_seconds=placement_regret(ledger).total_regret_seconds,
    )


def merge(results: list) -> FigTriggersResult:
    """Sweep protocol: grid-ordered rows -> the result object."""
    return FigTriggersResult(rows=tuple(results))


def render(result: FigTriggersResult) -> str:
    """The overhead-vs-adaptation-lag table, one block per scenario."""
    blocks = []
    scenarios = []
    for row in result.rows:
        if row.scenario not in scenarios:
            scenarios.append(row.scenario)
    for scenario in scenarios:
        rows = [r for r in result.rows if r.scenario == scenario]
        base = next((r for r in rows if r.policy == "fixed-interval"), rows[0])
        body = []
        for r in rows:
            d_e2e = (
                100.0 * (r.end_to_end_seconds - base.end_to_end_seconds)
                / base.end_to_end_seconds
                if base.end_to_end_seconds > 0
                else 0.0
            )
            rel_cost = (
                100.0 * r.monitor_cost / base.monitor_cost
                if base.monitor_cost > 0
                else 0.0
            )
            body.append([
                r.policy,
                f"{r.end_to_end_seconds:.1f}",
                f"{d_e2e:+.1f}%",
                str(r.snapshots),
                str(r.fires),
                str(r.budget_used),
                str(r.monitor_cost),
                f"{rel_cost:.0f}%",
                f"{r.mean_lag_steps:.2f}",
                f"{r.regret_seconds:.2f}",
            ])
        blocks.append(render_table(
            ["policy", "end-to-end (s)", "Δe2e", "snapshots", "fires",
             "budget", "monitor cost", "vs fixed", "mean lag", "regret (s)"],
            body,
            title=f"Trigger policies, scenario={scenario} "
            "(cost = snapshots x ranks + sampling budget)",
        ))
    return "\n\n".join(blocks)
