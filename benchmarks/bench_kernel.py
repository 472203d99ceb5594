"""Bench: the quickstart workflow weak-scaled to 64K virtual ranks.

The quickstart workload is weak-scaled to 65536 virtual ranks: cells
and cores grow proportionally so per-rank load matches the 1024-rank
quickstart.  The profiled run must use only registered spans and retain
>= 90% wall-time attribution in the profiler.  The simulated event
count is per step, not per rank, so the event kernel's share of the
wall time stays small at every scale.
"""

import time

from repro.hpc.systems import titan
from repro.observability import Profiler, unregistered_spans
from repro.workflow import Mode, WorkflowConfig
from repro.workflow.driver import CoupledWorkflow
from repro.workload import SyntheticAMRConfig, synthetic_amr_trace

_RANKS = 65536
_STEPS = 20
_SEED = 42


def _scaled_quickstart(nranks: int, steps: int, seed: int):
    """The canonical quickstart workload, weak-scaled to ``nranks``.

    Cells, simulation cores and staging cores all grow with the rank
    count (keeping the 1024:64 sim:staging core ratio), so per-rank load
    -- and therefore the per-step event pattern -- matches the
    1024-rank quickstart.
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


def test_kernel_fig_scale_attribution():
    """A 64K-rank workflow runs with >= 90% of its wall time attributed."""
    profiler = Profiler()

    started = time.perf_counter()
    with profiler.span("workload.build"):
        config, trace = _scaled_quickstart(_RANKS, _STEPS, _SEED)
    with profiler.span("workflow.setup"):
        workflow = CoupledWorkflow(config, trace, profiler=profiler)
    result = workflow.run()
    wall = time.perf_counter() - started
    events = workflow.sim.kernel.counters.total_processed

    attribution = profiler.total_seconds() / wall
    print(
        f"\n{_RANKS} virtual ranks: wall={wall:.3f}s  "
        f"events={events}  "
        f"end-to-end={result.end_to_end_seconds:.1f} sim-s  "
        f"attribution={attribution:.1%}"
    )

    assert events > 0
    assert unregistered_spans(profiler.dump()) == []
    assert attribution >= 0.90, (
        f"profiler attributes only {attribution:.1%} of the "
        f"{wall:.3f}s wall time (floor: 90%)"
    )
