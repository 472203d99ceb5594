"""Bench: the quickstart workflow weak-scaled to 64K virtual ranks.

The quickstart workload is weak-scaled to ``REPRO_KERNEL_RANKS`` virtual
ranks (default and ceiling 65536): cells and cores grow proportionally
so per-rank load matches the calibrated 1024-rank baseline that
``benchmarks/budgets.json`` pins.  The profiled run must respect
**every** budget ceiling, use only registered spans, and retain >= 90%
wall-time attribution in the profiler -- the same bar
``bench_profile.py`` sets for the canonical workload.  The simulated
event count is per step, not per rank, so the event kernel's share of
the wall time stays small at every scale.
"""

import os
import time
from pathlib import Path

from repro.hpc.systems import titan
from repro.observability import (
    Profiler,
    check_budgets,
    load_budgets,
    render_budget_report,
    unregistered_spans,
)
from repro.workflow import Mode, WorkflowConfig
from repro.workflow.driver import CoupledWorkflow
from repro.workload import SyntheticAMRConfig, synthetic_amr_trace

BUDGETS_PATH = Path(__file__).parent / "budgets.json"

#: The budget-checked rank count.  Budgets are calibrated for per-step
#: work, which is rank-independent on the event path but not on the
#: vectorized per-rank path (``workload.build`` grows with ranks), so the
#: ceilings are asserted at 64K at most.  The CI kernel-smoke job
#: reduces it; the floor keeps the weak-scaling arithmetic (cells and
#: cores proportional to ranks) meaningful.
_BUDGET_RANKS = min(
    65536, max(1024, int(os.environ.get("REPRO_KERNEL_RANKS", "65536")))
)


def _scaled_quickstart(nranks: int, steps: int, seed: int):
    """The canonical quickstart workload, weak-scaled to ``nranks``.

    Cells, simulation cores and staging cores all grow with the rank
    count (keeping the 1024:64 sim:staging core ratio), so per-rank load
    -- and therefore the per-step event pattern the budgets were
    calibrated against -- matches the 1024-rank baseline.
    """
    scale = nranks / 1024
    trace = synthetic_amr_trace(
        SyntheticAMRConfig(
            steps=steps,
            nranks=nranks,
            base_cells=5e7 * scale,
            sim_cost_per_cell=8.0,
            growth=2.0,
            analysis_growth_exponent=0.5,
            seed=seed,
        ),
        name=f"trace-kernel-{nranks}",
    )
    config = WorkflowConfig(
        mode=Mode("global"),
        sim_cores=nranks,
        staging_cores=max(64, nranks // 16),
        spec=titan(),
        analysis_cost_per_cell=0.45,
    )
    return config, trace


def test_kernel_fig_scale_under_budgets():
    """A >= 64K-rank workflow run in seconds, within every ceiling."""
    manifest = load_budgets(BUDGETS_PATH)
    workload = manifest["workload"]
    profiler = Profiler()

    started = time.perf_counter()
    with profiler.span("workload.build"):
        config, trace = _scaled_quickstart(
            _BUDGET_RANKS, workload["steps"], workload["seed"]
        )
    with profiler.span("workflow.setup"):
        workflow = CoupledWorkflow(config, trace, profiler=profiler)
    result = workflow.run()
    wall = time.perf_counter() - started
    events = workflow.sim.kernel.counters.total_processed

    attribution = profiler.total_seconds() / wall
    print(
        f"\n{_BUDGET_RANKS} virtual ranks: wall={wall:.3f}s  "
        f"events={events}  "
        f"end-to-end={result.end_to_end_seconds:.1f} sim-s  "
        f"attribution={attribution:.1%}"
    )
    print(render_budget_report(profiler, manifest))

    assert events > 0
    assert unregistered_spans(profiler) == []
    violations = check_budgets(profiler, manifest)
    assert not violations, "; ".join(v.describe() for v in violations)
    assert attribution >= 0.90, (
        f"profiler attributes only {attribution:.1%} of the "
        f"{wall:.3f}s wall time (floor: 90%)"
    )
