"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro list
    python -m repro fig7
    python -m repro table2
    python -m repro ablations
    python -m repro all
    python -m repro run-all --jobs 4
    python -m repro run-all --jobs 2 --only fig6,fig9
    python -m repro trace --steps 20 --record run.json
    python -m repro audit --steps 20 --record run.json
    python -m repro audit --diff a.json b.json
    python -m repro faults --list
    python -m repro faults blackout --steps 20
    python -m repro triggers --list
    python -m repro triggers --steps 20 --scenario blackout
    python -m repro profile --steps 20
    python -m repro tenants --list
    python -m repro tenants --policy smallest --tenants 4
    python -m repro tenants --smoke

Experiments are the entries of :data:`repro.experiments.parallel.SWEEPS`:
``list`` prints them, ``<id>`` and ``all`` compute every grid point in
this process and render the merged result.  ``run-all`` regenerates them
through the parallel sweep runner (:mod:`repro.experiments.parallel`):
each experiment's parameter grid is fanned over ``--jobs`` worker
processes, each with its own in-memory experiment cache, and the
grid-index-ordered merge makes every ``### <id>`` section bit-identical
to ``--jobs 1`` (and to the ``all`` command's sections).  The closing
``ran ... jobs=N`` line and the ``Cache metrics`` section differ, since
each worker keeps its own cache.  See ``docs/performance.md``.

``trace``, ``audit``, ``faults`` and ``profile`` are views of one
observed quickstart run.  They share ``--mode/--steps/--seed/--record``
and one runner, which injects each view's hooks into the workflow and
into the run record (:func:`repro.workflow.report.run_record`, schema
:data:`~repro.observability.RECORD_SCHEMA`); the view renders that
record, and ``--record PATH`` writes it.

- ``trace`` injects a :class:`~repro.observability.Tracer` and a
  :class:`~repro.observability.MetricsRegistry` and prints the per-step
  decision timeline and the sim-vs-staging occupancy Gantt.
- ``audit`` injects a :class:`~repro.observability.PredictionLedger` and
  prints the calibration report: per-estimator bias/MAPE/convergence
  plus the counterfactual placement regret.  ``--prometheus`` writes the
  text exposition format, and ``--diff A B`` compares two run records
  (estimate-error drift, regret delta, decision flips) without running
  anything.
- ``faults`` runs a named fault scenario (:data:`repro.faults.SCENARIOS`):
  it first replays the workload fault-free to measure the baseline
  end-to-end time (which also scales the scenario's fault timings), then
  replays it traced with the seeded :class:`~repro.faults.FaultPlan`
  injected, and prints the time-to-solution and data-movement deltas
  plus the fault/recovery timeline.  See ``docs/faults.md``.
- ``profile`` injects a :class:`~repro.observability.Profiler` and prints
  the span tree (call counts, cumulative and self wall-clock seconds per
  span path), the top-N hot list by self time, and the fraction of
  measured wall time the named spans attribute.  It is a view only: the
  span budget is checked by ``benchmarks/bench_profile.py``.  See
  ``docs/profiling.md``.

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
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

__all__ = ["SUBCOMMANDS", "main"]


def _quickstart(mode: str, steps: int, seed: int, estimator_bias: float = 1.0):
    """The quickstart workload + config the observed views replay."""
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


def _observed_run_flags() -> argparse.ArgumentParser:
    """The flags shared by the views of one observed quickstart run."""
    from repro.workflow import Mode

    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--mode", default="global",
                       choices=[m.value for m in Mode],
                       help="execution mode (default: global)")
    flags.add_argument("--steps", type=int, default=20,
                       help="workload length in steps (default: 20)")
    flags.add_argument("--seed", type=int, default=42,
                       help="synthetic workload seed (default: 42)")
    flags.add_argument("--record", metavar="PATH", default=None,
                       help="also write the run record (repro.run/1 JSON)")
    return flags


def _label(args: argparse.Namespace) -> str:
    return f"{args.mode} steps={args.steps} seed={args.seed}"


def _observe(args: argparse.Namespace, hooks: dict[str, Any], label: str,
             *, estimator_bias: float = 1.0, faults=None):
    """Run the quickstart once; return ``(result, record, wall seconds)``.

    ``hooks`` maps ``tracer``/``metrics``/``ledger``/``profiler`` to the
    instruments the view injects.  The one mapping reaches both the
    workflow and :func:`~repro.workflow.report.run_record`, so the view
    renders exactly the record ``--record`` writes.  The wall seconds
    cover building and running the workflow, not building the record.
    """
    from repro.observability.observer import section
    from repro.workflow import CoupledWorkflow, run_record

    profiler = hooks.get("profiler")
    started = time.perf_counter()
    with section(profiler, "workload.build"):
        config, trace = _quickstart(args.mode, args.steps, args.seed,
                                    estimator_bias=estimator_bias)
    with section(profiler, "workflow.setup"):
        workflow = CoupledWorkflow(config, trace, faults=faults, **hooks)
    result = workflow.run()
    wall = time.perf_counter() - started
    record = run_record(result, label=label,
                        counters=workflow.sim.kernel.counters, **hooks)
    return result, record, wall


def _write_record(args: argparse.Namespace, record: dict[str, Any]) -> None:
    if args.record is None:
        return
    target = Path(args.record)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote record to {args.record}")


def _run_all_command(argv: list[str]) -> int:
    """The ``repro run-all`` subcommand: the parallel sweep runner."""
    parser = argparse.ArgumentParser(
        prog="python -m repro run-all",
        description="Regenerate experiments through the parallel sweep "
        "runner: parameter grids fan out over --jobs worker processes, "
        "and results merge in grid order so each experiment's section is "
        "bit-identical to --jobs 1 (the closing summary and the cache "
        "metrics differ: each worker has its own cache).",
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
    """The ``repro trace`` subcommand: decision timeline + occupancy."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Replay the quickstart workload with cross-layer "
        "tracing enabled and render the decision timeline.",
        parents=[_observed_run_flags()],
    )
    parser.add_argument("--width", type=int, default=72,
                        help="Gantt width in columns (default: 72)")
    args = parser.parse_args(argv)

    from repro.observability import (
        MetricsRegistry,
        Tracer,
        decision_timeline,
        occupancy_gantt,
    )

    hooks = {"tracer": Tracer(), "metrics": MetricsRegistry()}
    result, record, _ = _observe(args, hooks, _label(args))
    print(f"mode={args.mode}  steps={args.steps}  "
          f"end-to-end={result.end_to_end_seconds:.2f}s  "
          f"overhead={result.overhead_seconds:.2f}s")
    print("\n## Decision timeline " + "#" * 50)
    print(decision_timeline(record))
    print("\n## Occupancy (sim vs in-transit) " + "#" * 38)
    print(occupancy_gantt(record, width=args.width))
    print("\n## Metrics " + "#" * 60)
    print(hooks["metrics"].render())
    _write_record(args, record)
    return 0


def _audit_command(argv: list[str]) -> int:
    """The ``repro audit`` subcommand: calibration + regret report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro audit",
        description="Replay the quickstart workload with a prediction "
        "ledger injected and print the calibration report (per-estimator "
        "bias/MAPE, EMA convergence, counterfactual placement regret); "
        "or, with --diff, compare two run records.",
        parents=[_observed_run_flags()],
    )
    parser.add_argument("--bias", type=float, default=1.0,
                        help="multiply every analysis-time estimate by "
                        "this factor (default: 1.0 = unbiased)")
    parser.add_argument("--prometheus", metavar="PATH", default=None,
                        help="write the metrics + ledger series in "
                        "Prometheus text exposition format")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                        help="compare two run records instead of running "
                        "the workload")
    args = parser.parse_args(argv)

    from repro.errors import ObservabilityError
    from repro.observability import (
        MetricsRegistry,
        PredictionLedger,
        calibration_report,
        diff_records,
        load_record,
        prometheus_text,
        render_diff,
    )

    if args.diff is not None:
        try:
            a, b = (load_record(p) for p in args.diff)
        except (OSError, ObservabilityError) as exc:
            print(f"audit --diff: {exc}", file=sys.stderr)
            return 2
        print(render_diff(diff_records(a, b)))
        return 0

    hooks = {"metrics": MetricsRegistry(), "ledger": PredictionLedger()}
    result, record, _ = _observe(
        args, hooks, f"{_label(args)} bias={args.bias:g}",
        estimator_bias=args.bias,
    )
    print(f"mode={args.mode}  steps={args.steps}  bias={args.bias:g}  "
          f"end-to-end={result.end_to_end_seconds:.2f}s")
    print("\n## Calibration " + "#" * 56)
    print(calibration_report(record))
    _write_record(args, record)
    if args.prometheus is not None:
        path = Path(args.prometheus)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(prometheus_text(record))
        print(f"wrote Prometheus exposition to {args.prometheus}")
    return 0


def _faults_command(argv: list[str]) -> int:
    """The ``repro faults`` subcommand: fault-scenario replay + deltas."""
    parser = argparse.ArgumentParser(
        prog="python -m repro faults",
        description="Run a named fault scenario against the quickstart "
        "workload and report the time-to-solution delta against the "
        "fault-free baseline, plus the fault/recovery timeline.",
        parents=[_observed_run_flags()],
    )
    parser.add_argument("scenario", nargs="?", default=None,
                        help="scenario name (see --list)")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list the available scenarios and exit")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault scenario seed (default: 0)")
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

    hooks = {"tracer": Tracer(), "metrics": MetricsRegistry()}
    result, record, _ = _observe(
        args, hooks,
        f"{args.scenario} {_label(args)} fault-seed={args.fault_seed}",
        faults=plan,
    )
    delta_t = result.end_to_end_seconds - baseline.end_to_end_seconds
    delta_pct = (
        100.0 * delta_t / baseline.end_to_end_seconds
        if baseline.end_to_end_seconds > 0 else 0.0
    )
    delta_bytes = result.data_moved_bytes - baseline.data_moved_bytes
    print(f"scenario={args.scenario}  mode={args.mode}  "
          f"steps={args.steps}  fault-seed={args.fault_seed}")
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
    print(fault_timeline(record))
    if not hooks["metrics"].as_dict().get("faults.injected"):
        print(f"{len(plan)} planned fault{'s' * (len(plan) != 1)}, 0 applied")
    print("\n## Metrics " + "#" * 60)
    print(hooks["metrics"].render())
    _write_record(args, record)
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
        "wall time.",
        parents=[_observed_run_flags()],
    )
    parser.add_argument("--top", type=int, default=10,
                        help="hot-list length (default: 10)")
    args = parser.parse_args(argv)

    from repro.observability import (
        Profiler,
        render_hot_spans,
        render_profile,
        unregistered_spans,
    )

    result, record, wall = _observe(args, {"profiler": Profiler()},
                                    _label(args))
    spans = record["spans"]
    attributed = sum(snap["cum_seconds"] for path, snap in spans.items()
                     if "/" not in path)
    coverage = 100.0 * attributed / wall if wall > 0 else 0.0
    print(f"mode={args.mode}  steps={args.steps}  "
          f"seed={args.seed}  end-to-end={result.end_to_end_seconds:.2f}s "
          f"(simulated)")
    print(f"host wall time {wall:.4f}s, {attributed:.4f}s attributed to "
          f"spans ({coverage:.1f}%)")
    print("\n## Span tree " + "#" * 58)
    print(render_profile(spans, total_seconds=wall))
    print(f"\n## Hot spans (top {args.top} by self time) "
          + "#" * max(0, 70 - 31 - len(str(args.top))))
    print(render_hot_spans(spans, top=args.top))
    unknown = unregistered_spans(spans)
    if unknown:
        print(f"\nWARNING: unregistered span names: {', '.join(unknown)} "
              "(register them in PROFILE_SPANS)", file=sys.stderr)
    _write_record(args, record)
    return 0


#: Subcommand -> (entry point, ``list`` summary), in ``list`` order.
_COMMANDS = {
    "run-all": (_run_all_command, "regenerate experiments via the "
                "parallel sweep runner"),
    "trace": (_trace_command, "instrumented replay: decision timeline + "
              "occupancy Gantt"),
    "audit": (_audit_command, "prediction-ledger replay: calibration "
              "report + placement regret"),
    "faults": (_faults_command, "fault-scenario replay: time-to-solution "
               "delta + recovery timeline"),
    "triggers": (_triggers_command, "trigger-policy comparison: "
                 "monitoring overhead vs adaptation lag"),
    "profile": (_profile_command, "span profile of a quickstart run: "
                "where host wall time goes"),
    "tenants": (_tenants_command, "multi-tenant service: contention, "
                "queue waits and fairness on a shared machine"),
}

#: Non-experiment subcommands (the docs-consistency test keys off this).
SUBCOMMANDS = ("list", "all", *_COMMANDS)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _COMMANDS:
        return _COMMANDS[argv[0]][0](argv[1:])

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

    from repro.experiments.parallel import SWEEPS

    if args.experiment == "list":
        width = max(len(name) for name in SWEEPS)
        for name, spec in SWEEPS.items():
            print(f"{name.ljust(width)}  {spec.description}")
        for name, (_command, summary) in _COMMANDS.items():
            print(f"{name.ljust(width)}  {summary} (see '{name} --help')")
        return 0

    if args.experiment == "all":
        for name, spec in SWEEPS.items():
            print(f"\n### {name} " + "#" * max(0, 66 - len(name)))
            print(spec.render(spec.result()))
        return 0

    spec = SWEEPS.get(args.experiment)
    if spec is None:
        print(f"unknown experiment {args.experiment!r}; try 'list'",
              file=sys.stderr)
        return 2
    print(spec.render(spec.result()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
