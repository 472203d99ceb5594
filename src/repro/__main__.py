"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro list
    python -m repro fig7
    python -m repro table2
    python -m repro ablations
    python -m repro all
    python -m repro run-all --jobs 4
    python -m repro run-all --jobs 2 --only fig6,fig9
    python -m repro trace --steps 20 --jsonl trace.jsonl
    python -m repro audit --steps 20 --export run.json
    python -m repro audit --diff a.json b.json
    python -m repro faults --list
    python -m repro faults blackout --steps 20
    python -m repro triggers --list
    python -m repro triggers --steps 20 --scenario blackout
    python -m repro profile --steps 20
    python -m repro profile --budgets benchmarks/budgets.json
    python -m repro tenants --list
    python -m repro tenants --policy smallest --tenants 4
    python -m repro tenants --smoke

``run-all`` regenerates experiments through the parallel sweep runner
(:mod:`repro.experiments.parallel`): each experiment's parameter grid is
fanned over ``--jobs`` worker processes sharing the disk cache, and the
grid-index-ordered merge makes the output bit-identical to ``--jobs 1``
(and to the serial ``all`` command's per-experiment sections).  See
``docs/performance.md``.

``trace`` is the observability workflow: it replays the quickstart
workload with a :class:`~repro.observability.Tracer` and
:class:`~repro.observability.MetricsRegistry` injected, prints the
per-step decision timeline and the sim-vs-staging occupancy Gantt, and
optionally writes the full event stream as JSON Lines.

``audit`` replays the same workload with a
:class:`~repro.observability.PredictionLedger` injected and prints the
calibration report: per-estimator bias/MAPE/convergence plus the
counterfactual placement regret.  ``--export`` writes a versioned JSON
snapshot, ``--prometheus`` writes the text exposition format, and
``--diff A B`` compares two exported snapshots (estimate-error drift,
regret delta, decision flips) without running anything.

``faults`` runs a named fault scenario (:data:`repro.faults.SCENARIOS`)
against the quickstart workload: it first replays the workload
fault-free to measure the baseline end-to-end time (which also scales
the scenario's fault timings), then replays it with the seeded
:class:`~repro.faults.FaultPlan` injected, and prints the
time-to-solution and data-movement deltas plus the fault/recovery
timeline.  See ``docs/faults.md``.

``triggers`` compares every registered trigger-detection policy
(:data:`repro.workflow.triggers.TRIGGER_POLICIES`) on one workload --
fault-free or under a named fault scenario -- and prints the
monitoring-overhead vs adaptation-lag table (the interactive face of
the ``fig_triggers`` sweep).  See ``docs/triggers.md``.

``tenants`` admits several coupled workflows onto ONE shared simulated
machine through the multi-tenant service (:mod:`repro.service`) and
prints the fleet SLO table: per-policy time-to-solution degradation vs
the solo baseline, queue waits, starvations and Jain fairness (the
interactive face of the ``fig_tenants`` sweep).  ``--smoke`` runs the
short two-tenant point the CI ``tenant-smoke`` job checks.  See
``docs/service.md``.

``profile`` replays the quickstart workload with a
:class:`~repro.observability.Profiler` injected and prints the span
tree (call counts, cumulative and self wall-clock seconds per span
path), the top-N hot list by self time, and the fraction of measured
wall time the named spans attribute.  ``--budgets`` additionally
checks the collected profile against a ``benchmarks/budgets.json``
manifest and exits non-zero on any ceiling violation (the CI
``profile-smoke`` job's check).  See ``docs/profiling.md``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from pathlib import Path

__all__ = ["SUBCOMMANDS", "main"]

#: Non-experiment subcommands (the docs-consistency test keys off this).
SUBCOMMANDS = ("list", "all", "run-all", "trace", "audit", "faults",
               "triggers", "profile", "tenants")


def _fig1() -> str:
    from repro.experiments import fig1_memory

    return fig1_memory.render(fig1_memory.run_fig1())


def _fig4() -> str:
    from repro.experiments import fig4_timeline

    return fig4_timeline.render(fig4_timeline.run_fig4())


def _fig5() -> str:
    from repro.experiments import fig5_app_layer

    return fig5_app_layer.render(fig5_app_layer.run_fig5())


def _fig6() -> str:
    from repro.experiments import fig6_entropy

    return fig6_entropy.render(fig6_entropy.run_fig6())


def _fig7() -> str:
    from repro.experiments import fig7_placement

    return fig7_placement.render(fig7_placement.run_fig7())


def _fig8() -> str:
    from repro.experiments import fig8_data_movement

    return fig8_data_movement.render(fig8_data_movement.run_fig8())


def _fig9() -> str:
    from repro.experiments import fig9_resource

    return fig9_resource.render(fig9_resource.run_fig9())


def _fig10() -> str:
    from repro.experiments import fig10_global

    return fig10_global.render(fig10_global.run_fig10())


def _fig11() -> str:
    from repro.experiments import fig11_global_movement

    return fig11_global_movement.render(fig11_global_movement.run_fig11())


def _table2() -> str:
    from repro.experiments import table2_utilization

    return table2_utilization.render(table2_utilization.run_table2())


def _ablations() -> str:
    from repro.experiments import ablations

    return ablations.render_all()


def _objectives() -> str:
    from repro.experiments import objectives

    return objectives.render(objectives.run_objectives())


def _fig_triggers() -> str:
    from repro.experiments import fig_triggers

    return fig_triggers.render(fig_triggers.run_fig_triggers())


def _fig_tenants() -> str:
    from repro.experiments import fig_tenants

    return fig_tenants.render(fig_tenants.run_fig_tenants())


EXPERIMENTS: dict[str, tuple[str, Callable[[], str]]] = {
    "fig1": ("peak-memory distribution, Polytropic Gas", _fig1),
    "fig4": ("placement decision timeline", _fig4),
    "fig5": ("adaptive spatial resolution vs memory", _fig5),
    "fig6": ("entropy-based down-sampling fidelity", _fig6),
    "fig7": ("end-to-end time: static vs adaptive placement", _fig7),
    "fig8": ("data movement: in-transit vs adaptive", _fig8),
    "fig9": ("adaptive staging allocation + Eq. 12", _fig9),
    "fig10": ("global cross-layer vs local adaptation", _fig10),
    "fig11": ("data movement: global vs local", _fig11),
    "table2": ("staging core usage histogram", _table2),
    "ablations": ("design-choice sweeps", _ablations),
    "objectives": ("user-preference trade-off comparison", _objectives),
    "fig_triggers": ("monitoring overhead vs adaptation lag across "
                     "trigger policies", _fig_triggers),
    "fig_tenants": ("multi-tenant contention across admission policies",
                    _fig_tenants),
}


def _quickstart(mode: str, steps: int, seed: int, estimator_bias: float = 1.0):
    """The quickstart workload + config shared by ``trace`` and ``audit``."""
    from repro.hpc.systems import titan
    from repro.workflow import Mode, WorkflowConfig
    from repro.workload import SyntheticAMRConfig, synthetic_amr_trace

    trace = synthetic_amr_trace(
        SyntheticAMRConfig(
            steps=steps,
            nranks=1024,
            base_cells=5e7,
            sim_cost_per_cell=8.0,
            growth=2.0,
            analysis_growth_exponent=0.5,
            seed=seed,
        ),
        name="trace-quickstart",
    )
    config = WorkflowConfig(
        mode=Mode(mode),
        sim_cores=1024,
        staging_cores=64,
        spec=titan(),
        analysis_cost_per_cell=0.45,
        estimator_bias=estimator_bias,
    )
    return config, trace


def _run_all_command(argv: list[str]) -> int:
    """The ``repro run-all`` subcommand: the parallel sweep runner."""
    parser = argparse.ArgumentParser(
        prog="python -m repro run-all",
        description="Regenerate experiments through the parallel sweep "
        "runner: parameter grids fan out over --jobs worker processes "
        "sharing the disk cache, and results merge in grid order so the "
        "output is bit-identical to --jobs 1.",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1 = in-process)")
    parser.add_argument("--only", default=None, metavar="IDS",
                        help="comma-separated experiment ids to run "
                        "(default: all; see 'list')")
    args = parser.parse_args(argv)

    from repro.errors import ExperimentError
    from repro.experiments.parallel import run_all
    from repro.observability import MetricsRegistry

    only = None
    if args.only is not None:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
        if not only:
            parser.error("--only needs at least one experiment id")

    metrics = MetricsRegistry()
    try:
        outcomes = run_all(only, jobs=args.jobs, metrics=metrics)
    except ExperimentError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    for outcome in outcomes:
        print(f"\n### {outcome.name} " + "#" * max(0, 66 - len(outcome.name)))
        print(outcome.text)

    total_points = sum(outcome.points for outcome in outcomes)
    total_seconds = sum(outcome.seconds for outcome in outcomes)
    print(f"\nran {len(outcomes)} experiment(s), {total_points} grid "
          f"point(s) with jobs={args.jobs} "
          f"(compute time {total_seconds:.2f}s)")
    print("\n## Cache metrics " + "#" * 54)
    print(metrics.render())
    return 0


def _trace_command(argv: list[str]) -> int:
    """The ``repro trace`` subcommand: an instrumented quickstart replay."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Replay the quickstart workload with cross-layer "
        "tracing enabled and render the decision timeline.",
    )
    parser.add_argument("--mode", default="global",
                        choices=[m.value for m in _trace_modes()],
                        help="execution mode (default: global)")
    parser.add_argument("--steps", type=int, default=20,
                        help="workload length in steps (default: 20)")
    parser.add_argument("--seed", type=int, default=42,
                        help="synthetic workload seed (default: 42)")
    parser.add_argument("--jsonl", metavar="PATH", default=None,
                        help="also write the raw event stream as JSON Lines")
    parser.add_argument("--width", type=int, default=72,
                        help="Gantt width in columns (default: 72)")
    args = parser.parse_args(argv)

    from repro.observability import (
        MetricsRegistry,
        Tracer,
        decision_timeline,
        occupancy_gantt,
    )
    from repro.workflow import run_workflow

    config, trace = _quickstart(args.mode, args.steps, args.seed)
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = run_workflow(config, trace, tracer=tracer, metrics=metrics)

    print(f"mode={config.mode.value}  steps={len(trace)}  "
          f"end-to-end={result.end_to_end_seconds:.2f}s  "
          f"overhead={result.overhead_seconds:.2f}s")
    print("\n## Decision timeline " + "#" * 50)
    print(decision_timeline(tracer))
    print("\n## Occupancy (sim vs in-transit) " + "#" * 38)
    print(occupancy_gantt(tracer, width=args.width))
    print("\n## Metrics " + "#" * 60)
    print(metrics.render())
    if args.jsonl is not None:
        Path(args.jsonl).parent.mkdir(parents=True, exist_ok=True)
        tracer.to_jsonl(args.jsonl)
        print(f"\nwrote {len(tracer)} events to {args.jsonl}")
    return 0


def _audit_command(argv: list[str]) -> int:
    """The ``repro audit`` subcommand: calibration + regret report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro audit",
        description="Replay the quickstart workload with a prediction "
        "ledger injected and print the calibration report (per-estimator "
        "bias/MAPE, EMA convergence, counterfactual placement regret); "
        "or, with --diff, compare two exported snapshots.",
    )
    parser.add_argument("--mode", default="global",
                        choices=[m.value for m in _trace_modes()],
                        help="execution mode (default: global)")
    parser.add_argument("--steps", type=int, default=20,
                        help="workload length in steps (default: 20)")
    parser.add_argument("--seed", type=int, default=42,
                        help="synthetic workload seed (default: 42)")
    parser.add_argument("--bias", type=float, default=1.0,
                        help="multiply every analysis-time estimate by "
                        "this factor (default: 1.0 = unbiased)")
    parser.add_argument("--export", metavar="PATH", default=None,
                        help="write a versioned JSON snapshot of the run")
    parser.add_argument("--prometheus", metavar="PATH", default=None,
                        help="write the metrics + ledger series in "
                        "Prometheus text exposition format")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                        help="compare two exported snapshots instead of "
                        "running the workload")
    args = parser.parse_args(argv)

    from repro.observability import (
        MetricsRegistry,
        PredictionLedger,
        calibration_report,
        diff_snapshots,
        export_snapshot,
        load_snapshot,
        prometheus_text,
        render_diff,
    )

    if args.diff is not None:
        a, b = (load_snapshot(p) for p in args.diff)
        print(render_diff(diff_snapshots(a, b)))
        return 0

    from repro.workflow import run_workflow

    config, trace = _quickstart(args.mode, args.steps, args.seed,
                                estimator_bias=args.bias)
    ledger = PredictionLedger()
    metrics = MetricsRegistry()
    result = run_workflow(config, trace, metrics=metrics, ledger=ledger)

    print(f"mode={config.mode.value}  steps={len(trace)}  "
          f"bias={args.bias:g}  "
          f"end-to-end={result.end_to_end_seconds:.2f}s")
    print("\n## Calibration " + "#" * 56)
    print(calibration_report(ledger))
    label = f"{config.mode.value} steps={len(trace)} seed={args.seed} " \
            f"bias={args.bias:g}"
    if args.export is not None:
        export_snapshot(metrics=metrics, ledger=ledger, label=label,
                        path=args.export)
        print(f"\nwrote snapshot to {args.export}")
    if args.prometheus is not None:
        path = Path(args.prometheus)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(prometheus_text(metrics=metrics, ledger=ledger))
        print(f"wrote Prometheus exposition to {args.prometheus}")
    return 0


def _faults_command(argv: list[str]) -> int:
    """The ``repro faults`` subcommand: fault-scenario replay + deltas."""
    parser = argparse.ArgumentParser(
        prog="python -m repro faults",
        description="Run a named fault scenario against the quickstart "
        "workload and report the time-to-solution delta against the "
        "fault-free baseline, plus the fault/recovery timeline.",
    )
    parser.add_argument("scenario", nargs="?", default=None,
                        help="scenario name (see --list)")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list the available scenarios and exit")
    parser.add_argument("--mode", default="global",
                        choices=[m.value for m in _trace_modes()],
                        help="execution mode (default: global)")
    parser.add_argument("--steps", type=int, default=20,
                        help="workload length in steps (default: 20)")
    parser.add_argument("--seed", type=int, default=42,
                        help="synthetic workload seed (default: 42)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault scenario seed (default: 0)")
    parser.add_argument("--jsonl", metavar="PATH", default=None,
                        help="also write the faulted run's event stream "
                        "as JSON Lines")
    args = parser.parse_args(argv)

    from repro.faults import SCENARIOS, build_scenario

    if args.list_scenarios:
        width = max(len(name) for name in SCENARIOS)
        for name, (description, _builder) in sorted(SCENARIOS.items()):
            print(f"{name.ljust(width)}  {description}")
        return 0
    if args.scenario is None:
        parser.error("a scenario name is required (or use --list)")

    from repro.observability import MetricsRegistry, Tracer, fault_timeline
    from repro.workflow import run_workflow

    # Fault-free baseline: measures the deltas AND provides the horizon
    # the scenario's relative fault timings are scaled by.
    config, trace = _quickstart(args.mode, args.steps, args.seed)
    baseline = run_workflow(config, trace)
    plan = build_scenario(
        args.scenario,
        horizon=baseline.end_to_end_seconds,
        seed=args.fault_seed,
        staging_cores=config.staging_cores,
        steps=len(trace),
    )

    config, trace = _quickstart(args.mode, args.steps, args.seed)
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = run_workflow(config, trace, tracer=tracer, metrics=metrics,
                          faults=plan)

    delta_t = result.end_to_end_seconds - baseline.end_to_end_seconds
    delta_pct = (
        100.0 * delta_t / baseline.end_to_end_seconds
        if baseline.end_to_end_seconds > 0 else 0.0
    )
    delta_bytes = result.data_moved_bytes - baseline.data_moved_bytes
    print(f"scenario={args.scenario}  mode={config.mode.value}  "
          f"steps={len(trace)}  fault-seed={args.fault_seed}")
    print("\n## Fault plan " + "#" * 57)
    print(plan.describe())
    print("\n## Time to solution " + "#" * 51)
    print(f"fault-free : {baseline.end_to_end_seconds:12.2f} s")
    print(f"faulted    : {result.end_to_end_seconds:12.2f} s")
    print(f"delta      : {delta_t:+12.2f} s ({delta_pct:+.1f}%)")
    print("\n## Data movement " + "#" * 54)
    print(f"fault-free : {baseline.data_moved_bytes:15.0f} B")
    print(f"faulted    : {result.data_moved_bytes:15.0f} B")
    print(f"delta      : {delta_bytes:+15.0f} B")
    print("\n## Fault/recovery timeline " + "#" * 44)
    print(fault_timeline(tracer))
    print("\n## Metrics " + "#" * 60)
    print(metrics.render())
    if args.jsonl is not None:
        Path(args.jsonl).parent.mkdir(parents=True, exist_ok=True)
        tracer.to_jsonl(args.jsonl)
        print(f"\nwrote {len(tracer)} events to {args.jsonl}")
    return 0


def _triggers_command(argv: list[str]) -> int:
    """The ``repro triggers`` subcommand: one-scenario policy comparison."""
    parser = argparse.ArgumentParser(
        prog="python -m repro triggers",
        description="Compare every registered trigger-detection policy "
        "(fixed-interval baseline, entropy-percentile sampling, imbalance, "
        "staging pressure) on the trigger-sweep workload and print the "
        "monitoring-overhead vs adaptation-lag table.",
    )
    parser.add_argument("--list", action="store_true", dest="list_policies",
                        help="list the registered trigger policies and exit")
    parser.add_argument("--steps", type=int, default=20,
                        help="workload length in steps (default: 20)")
    parser.add_argument("--scenario", default="none",
                        help="fault scenario to inject, or 'none' "
                        "(default: none; see 'faults --list')")
    args = parser.parse_args(argv)

    from repro.workflow.triggers import TRIGGER_POLICIES

    if args.list_policies:
        width = max(len(name) for name in TRIGGER_POLICIES)
        for name, (description, _factory) in TRIGGER_POLICIES.items():
            print(f"{name.ljust(width)}  {description}")
        return 0

    from repro.experiments import fig_triggers

    if args.scenario != "none":
        from repro.faults import SCENARIOS

        if args.scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            parser.error(f"unknown scenario {args.scenario!r} "
                         f"(known: {known}, or 'none')")

    rows = [
        fig_triggers.run_point(
            {"policy": policy, "scenario": args.scenario, "steps": args.steps}
        )
        for policy in fig_triggers.POLICY_NAMES
    ]
    print(fig_triggers.render(fig_triggers.merge(rows)))
    return 0


def _tenants_command(argv: list[str]) -> int:
    """The ``repro tenants`` subcommand: shared-machine contention."""
    parser = argparse.ArgumentParser(
        prog="python -m repro tenants",
        description="Admit several coupled workflows onto one shared "
        "machine under an admission policy and print the fleet's SLO "
        "table: time-to-solution degradation vs the solo baseline, "
        "queue waits, starvations, and Jain fairness over slowdowns.",
    )
    parser.add_argument("--list", action="store_true", dest="list_policies",
                        help="list the admission policies and exit")
    parser.add_argument("--policy", default=None,
                        help="run only this admission policy "
                        "(default: sweep all; see --list)")
    parser.add_argument("--tenants", type=int, default=None, metavar="N",
                        help="run only the N-tenant point "
                        "(default: sweep 1, 2 and 4)")
    parser.add_argument("--steps", type=int, default=None,
                        help="per-tenant workload length in steps "
                        "(default: 10)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke: one short fifo 2-tenant point, "
                        "checked for completion and queue accounting")
    args = parser.parse_args(argv)

    from repro.service import ADMISSION_POLICIES

    if args.list_policies:
        width = max(len(name) for name in ADMISSION_POLICIES)
        for name, description in ADMISSION_POLICIES.items():
            print(f"{name.ljust(width)}  {description}")
        return 0

    from repro.experiments import fig_tenants

    if args.smoke:
        row = fig_tenants.run_point(
            {"policy": "fifo", "tenants": 2, "steps": 6}
        )
        print(fig_tenants.render(fig_tenants.merge([
            fig_tenants.run_point(
                {"policy": "fifo", "tenants": 1, "steps": 6}
            ),
            row,
        ])))
        ok = row.makespan > 0 and row.mean_tts > 0
        print(f"\ntenant smoke: {'OK' if ok else 'FAILED'} "
              f"(2 tenants served, makespan {row.makespan:.1f}s)")
        return 0 if ok else 1

    if args.policy is not None and args.policy not in ADMISSION_POLICIES:
        known = ", ".join(sorted(ADMISSION_POLICIES))
        parser.error(f"unknown admission policy {args.policy!r} "
                     f"(known: {known})")

    policies = (
        (args.policy,) if args.policy is not None
        else fig_tenants.POLICY_NAMES
    )
    counts = (
        (args.tenants,) if args.tenants is not None
        else fig_tenants.TENANT_COUNTS
    )
    if any(count < 1 for count in counts):
        parser.error("--tenants must be >= 1")
    steps = args.steps if args.steps is not None else fig_tenants.STEPS
    rows = [
        fig_tenants.run_point(
            {"policy": policy, "tenants": count, "steps": steps}
        )
        for policy in policies
        for count in counts
    ]
    print(fig_tenants.render(fig_tenants.merge(rows)))
    return 0


def _profile_command(argv: list[str]) -> int:
    """The ``repro profile`` subcommand: span profile of a quickstart run."""
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Replay the quickstart workload under the span "
        "profiler and print where the host's wall-clock time goes: the "
        "span tree (count, cumulative, self seconds per path), the hot "
        "list by self time, and the attributed fraction of measured "
        "wall time.  With --budgets, check the profile against a "
        "budget manifest and exit 1 on any ceiling violation.",
    )
    parser.add_argument("--mode", default="global",
                        choices=[m.value for m in _trace_modes()],
                        help="execution mode (default: global)")
    parser.add_argument("--steps", type=int, default=20,
                        help="workload length in steps (default: 20)")
    parser.add_argument("--seed", type=int, default=42,
                        help="synthetic workload seed (default: 42)")
    parser.add_argument("--top", type=int, default=10,
                        help="hot-list length (default: 10)")
    parser.add_argument("--budgets", metavar="PATH", default=None,
                        help="check the profile against this "
                        "repro.budgets/1 manifest (benchmarks/budgets.json)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the raw span dump as JSON")
    args = parser.parse_args(argv)

    import json as json_mod
    import time

    from repro.errors import ObservabilityError
    from repro.observability import (
        Profiler,
        check_budgets,
        load_budgets,
        render_budget_report,
        render_hot_spans,
        render_profile,
        unregistered_spans,
    )
    from repro.workflow.driver import CoupledWorkflow

    budgets = None
    if args.budgets is not None:
        try:
            budgets = load_budgets(args.budgets)
        except (OSError, ObservabilityError) as exc:
            print(f"invalid budget manifest {args.budgets}: {exc}",
                  file=sys.stderr)
            return 2

    profiler = Profiler()
    started = time.perf_counter()
    with profiler.span("workload.build"):
        config, trace = _quickstart(args.mode, args.steps, args.seed)
    with profiler.span("workflow.setup"):
        workflow = CoupledWorkflow(config, trace, profiler=profiler)
    result = workflow.run()
    wall = time.perf_counter() - started

    attributed = profiler.total_seconds()
    coverage = 100.0 * attributed / wall if wall > 0 else 0.0
    print(f"mode={config.mode.value}  steps={len(trace)}  "
          f"seed={args.seed}  end-to-end={result.end_to_end_seconds:.2f}s "
          f"(simulated)")
    print(f"host wall time {wall:.4f}s, {attributed:.4f}s attributed to "
          f"spans ({coverage:.1f}%)")
    print("\n## Span tree " + "#" * 58)
    print(render_profile(profiler, total_seconds=wall))
    print(f"\n## Hot spans (top {args.top} by self time) "
          + "#" * max(0, 70 - 31 - len(str(args.top))))
    print(render_hot_spans(profiler, top=args.top))
    unknown = unregistered_spans(profiler)
    if unknown:
        print(f"\nWARNING: unregistered span names: {', '.join(unknown)} "
              "(register them in PROFILE_SPANS)", file=sys.stderr)
    if args.json is not None:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json_mod.dumps(profiler.dump(), indent=2,
                                       sort_keys=True) + "\n")
        print(f"\nwrote span dump to {args.json}")
    if budgets is not None:
        print("\n## Budget check " + "#" * 55)
        print(render_budget_report(profiler, budgets))
        if check_budgets(profiler, budgets):
            return 1
    return 0


def _trace_modes():
    from repro.workflow import Mode

    return list(Mode)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run-all":
        return _run_all_command(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_command(argv[1:])
    if argv and argv[0] == "audit":
        return _audit_command(argv[1:])
    if argv and argv[0] == "faults":
        return _faults_command(argv[1:])
    if argv and argv[0] == "triggers":
        return _triggers_command(argv[1:])
    if argv and argv[0] == "profile":
        return _profile_command(argv[1:])
    if argv and argv[0] == "tenants":
        return _tenants_command(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the experiments of Jin et al., SC'13.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all', 'run-all', 'list', "
        "'trace', 'audit', 'faults', 'triggers', 'profile', or 'tenants'",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, (description, _fn) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {description}")
        print(f"{'run-all'.ljust(width)}  regenerate experiments via the "
              "parallel sweep runner (see 'run-all --help')")
        print(f"{'trace'.ljust(width)}  instrumented replay: decision "
              "timeline + occupancy Gantt (see 'trace --help')")
        print(f"{'audit'.ljust(width)}  prediction-ledger replay: "
              "calibration report + placement regret (see 'audit --help')")
        print(f"{'faults'.ljust(width)}  fault-scenario replay: "
              "time-to-solution delta + recovery timeline "
              "(see 'faults --help')")
        print(f"{'triggers'.ljust(width)}  trigger-policy comparison: "
              "monitoring overhead vs adaptation lag "
              "(see 'triggers --help')")
        print(f"{'profile'.ljust(width)}  span profile of a quickstart "
              "run: where host wall time goes, budget check "
              "(see 'profile --help')")
        print(f"{'tenants'.ljust(width)}  multi-tenant service: "
              "contention, queue waits and fairness on a shared machine "
              "(see 'tenants --help')")
        return 0

    if args.experiment == "all":
        for name, (_description, fn) in EXPERIMENTS.items():
            print(f"\n### {name} " + "#" * max(0, 66 - len(name)))
            print(fn())
        return 0

    entry = EXPERIMENTS.get(args.experiment)
    if entry is None:
        print(f"unknown experiment {args.experiment!r}; try 'list'",
              file=sys.stderr)
        return 2
    print(entry[1]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
