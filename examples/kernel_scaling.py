#!/usr/bin/env python
"""Kernel scaling: events/sec and wall-time attribution vs. rank count.

Fig-scale experiments run at 64K virtual ranks in seconds because the
simulated event count is per step, not per rank: per-rank state lives
in NumPy arrays, and the typed event kernel (``repro.hpc.kernel``, see
``docs/kernel.md``) only sees each step's handful of compute, transfer
and staging events.  This example sweeps a weak-scaled quickstart
workload over increasing rank counts and, for each scale, prints:

- the host wall seconds for the whole run (build + setup + run);
- the kernel's always-on event tally and the resulting events/sec;
- where the profiler attributes the wall time, per layer -- the same
  span tree ``python -m repro profile`` renders, which must account for
  (nearly) all of the measured wall time.

``benchmarks/bench_kernel.py`` asserts the attribution at 64K ranks;
this example keeps the rank counts modest so it runs in about a second.

Run:  python examples/kernel_scaling.py
"""

import time

from repro.hpc.systems import titan
from repro.observability import Profiler, render_hot_spans
from repro.workflow import CoupledWorkflow, Mode, WorkflowConfig
from repro.workload import SyntheticAMRConfig, synthetic_amr_trace

#: Weak-scaling sweep: modest by default so the example (and its smoke
#: test) stays fast.
SWEEP = (4096, 16384, 65536)

STEPS = 20
SEED = 42


def scaled_quickstart(nranks: int):
    """The quickstart workload weak-scaled to ``nranks`` virtual ranks.

    Cells and cores grow with the rank count (keeping the canonical
    1024:64 sim:staging core ratio) so per-rank load matches the
    calibrated baseline -- classic weak scaling.
    """
    scale = nranks / 1024
    trace = synthetic_amr_trace(
        SyntheticAMRConfig(
            steps=STEPS,
            nranks=nranks,
            base_cells=5e7 * scale,
            sim_cost_per_cell=8.0,
            growth=2.0,
            analysis_growth_exponent=0.5,
            seed=SEED,
        ),
        name=f"trace-scaling-{nranks}",
    )
    config = WorkflowConfig(
        mode=Mode("global"),
        sim_cores=nranks,
        staging_cores=max(64, nranks // 16),
        spec=titan(),
        analysis_cost_per_cell=0.45,
    )
    return config, trace


def main() -> None:
    print("# Kernel weak-scaling sweep "
          f"({STEPS} steps, seed {SEED}, mode=global)\n")
    print(f"{'ranks':>8} {'wall (s)':>9} {'events':>7} {'events/s':>9} "
          f"{'attributed':>11} {'end-to-end (sim-s)':>19}")

    last_profiler = None
    for nranks in SWEEP:
        profiler = Profiler()
        started = time.perf_counter()
        with profiler.span("workload.build"):
            config, trace = scaled_quickstart(nranks)
        with profiler.span("workflow.setup"):
            workflow = CoupledWorkflow(config, trace, profiler=profiler)
        result = workflow.run()
        wall = time.perf_counter() - started

        # The kernel's first-class counters: no instrumentation needed,
        # the tally is always on.
        events = workflow.sim.kernel.counters.total_processed
        attribution = profiler.total_seconds() / wall
        print(f"{nranks:>8,} {wall:>9.3f} {events:>7} {events / wall:>9,.0f} "
              f"{attribution:>10.1%} {result.end_to_end_seconds:>19.1f}")
        assert attribution >= 0.90, "profiler lost track of the wall time"
        last_profiler = profiler

    print("\nPer-layer attribution at the largest scale (hot spans):")
    print(render_hot_spans(last_profiler.dump(), top=6))
    print("\nevents/sec attribution intact at every scale: YES")


if __name__ == "__main__":
    main()
