#!/usr/bin/env python
"""Span profiling: find out *where* a coupled run spends its wall time.

The observability stack's third pillar (after the tracer's *why* and
the metrics registry's *how much*): inject a
:class:`~repro.observability.Profiler` through the same ``profiler=``
keyword the other instruments use and every layer -- workflow driver,
event kernel, monitor, adaptation engine, staging area -- charges its
wall-clock seconds to a nested span path like
``workflow.run/sim.run/workflow.decide/engine.adapt``.

This example profiles one quickstart-sized run, renders the span tree
and the hot list, shows that the spans attribute essentially all of the
measured wall time, and folds a second (simulated worker) profile in
with :func:`~repro.observability.merge_worker_profiles` -- the same
cross-process aggregation ``repro run-all --jobs N`` uses.  The
assertions double as a smoke test: every recorded span name must be
registered in ``PROFILE_SPANS`` and the run must satisfy the shipped
hot-path budgets in ``benchmarks/budgets.json``.

Run:  python examples/profiling.py
"""

import time
from pathlib import Path

from repro.hpc.systems import titan
from repro.observability import (
    Profiler,
    check_budgets,
    merge_worker_profiles,
    render_hot_spans,
    render_profile,
    unregistered_spans,
)
from repro.workflow import CoupledWorkflow, Mode, WorkflowConfig
from repro.workload import SyntheticAMRConfig, synthetic_amr_trace

BUDGETS = Path(__file__).resolve().parent.parent / "benchmarks" / "budgets.json"


def build_workload(steps: int, seed: int):
    config = WorkflowConfig(mode=Mode.GLOBAL, sim_cores=1024,
                            staging_cores=64, spec=titan(),
                            analysis_cost_per_cell=0.035)
    trace = synthetic_amr_trace(
        SyntheticAMRConfig(steps=steps, nranks=64, base_cells=2e7,
                           sim_cost_per_cell=1.0, growth=1.5, seed=seed)
    )
    return config, trace


def main() -> None:
    profiler = Profiler()
    started = time.perf_counter()
    with profiler.span("workload.build"):
        config, trace = build_workload(steps=20, seed=42)
    with profiler.span("workflow.setup"):
        workflow = CoupledWorkflow(config, trace, profiler=profiler)
    result = workflow.run()
    wall = time.perf_counter() - started

    attributed = profiler.total_seconds()
    spans = profiler.dump()
    print(f"simulated end-to-end: {result.end_to_end_seconds:.1f} s; "
          f"host wall time {wall * 1e3:.1f} ms, "
          f"{100.0 * attributed / wall:.1f}% attributed to spans")
    print()
    print(render_profile(spans, total_seconds=wall))
    print()
    print(render_hot_spans(spans, top=5))
    print()

    # Cross-process aggregation: a worker ships back its dump() and the
    # parent folds it in -- counts and seconds sum exactly per path.
    worker = Profiler()
    worker_config, worker_trace = build_workload(steps=10, seed=7)
    with worker.span("sweep.point"):
        CoupledWorkflow(worker_config, worker_trace, profiler=worker).run()
    merge_worker_profiles(profiler, [worker.dump()])
    point = profiler.get("sweep.point")
    nested = profiler.get("sweep.point/workflow.run")
    print(f"merged one worker profile: sweep.point count {point.count}, "
          f"its nested workflow.run count {nested.count}")

    assert unregistered_spans(profiler.dump()) == []
    violations = check_budgets(profiler.dump(), BUDGETS)
    assert not violations, "; ".join(v.describe() for v in violations)
    print("every span registered and within budget: YES")


if __name__ == "__main__":
    main()
