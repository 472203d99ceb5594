#!/usr/bin/env python
"""Fault injection: the autonomic loop under a staging blackout.

The paper's cross-layer loop (Monitor -> Adaptation Engine -> Policies)
is exercised under failure: a seeded :class:`repro.faults.FaultPlan`
kills every staging core mid-run and restores them later.  While staging
is unreachable the engine degrades placement to in-situ
(``placement.fallback`` / degraded ``adapt.decision`` events); after the
restore the resource layer re-runs the Eq. 9-10 sizing against the
surviving pool.  The same workload also runs under a custom plan mixing
a link brownout with a straggler window, to show plans compose.

Run:  python examples/fault_scenarios.py
"""

from repro.experiments.fig9_resource import polytropic_trace
from repro.faults import FaultPlan, LinkDegrade, Straggler, build_scenario
from repro.hpc.systems import intrepid
from repro.observability import MetricsRegistry, Tracer, fault_timeline
from repro.units import format_seconds
from repro.workflow import Mode, WorkflowConfig, run_record, run_workflow


def config() -> WorkflowConfig:
    return WorkflowConfig(
        mode=Mode.GLOBAL,
        sim_cores=4096,
        staging_cores=256,
        spec=intrepid(),
        analysis_cost_per_cell=0.1,
    )


def run_with(plan: FaultPlan | None, label: str):
    trace = polytropic_trace(steps=30)
    tracer = Tracer() if plan is not None else None
    result = run_workflow(config(), trace, tracer=tracer,
                          metrics=MetricsRegistry(), faults=plan)
    print(f"{label:<22s} end-to-end {format_seconds(result.end_to_end_seconds):>9s}"
          f"   data moved {result.data_moved_bytes / 1e9:6.2f} GB")
    return result, run_record(result, tracer=tracer)


def main() -> None:
    baseline, _ = run_with(None, "fault-free")
    horizon = baseline.end_to_end_seconds

    # A named scenario, scaled to this workload's fault-free duration.
    blackout = build_scenario("blackout", horizon=horizon,
                              staging_cores=256, steps=30)
    _result, record = run_with(blackout, "blackout scenario")

    # A hand-built plan: brownout + stragglers overlapping mid-run.
    custom = FaultPlan([
        LinkDegrade(at=0.2 * horizon, duration=0.3 * horizon,
                    bandwidth_factor=0.25, latency_factor=4.0),
        Straggler(at=0.3 * horizon, duration=0.25 * horizon, factor=3.0),
    ])
    run_with(custom, "brownout + stragglers")

    print("\nblackout fault/recovery timeline:\n")
    print(fault_timeline(record))
    print("\nwhile staging is dark the engine degrades every placement to "
          "in-situ;\nafter the restore the resource layer re-sizes the pool "
          "(Eqs. 9-10).")


if __name__ == "__main__":
    main()
