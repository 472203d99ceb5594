#!/usr/bin/env python
"""Quickstart: adaptive vs static placement on a coupled AMR workflow.

Builds a synthetic AMR workload (20 steps, 1K simulation cores, 64
staging cores on a Titan-like machine), runs it under static in-situ,
static in-transit and adaptive middleware placement, and prints the
paper's headline metrics: end-to-end time, overhead and data movement.

Run:  python examples/quickstart.py

The paper-figure experiments (``python -m repro list``) memoize their
deterministic solver runs through ``repro.experiments.cache``; set
``REPRO_NO_CACHE=1`` to force every run to recompute from scratch (the
outputs are bit-identical either way — see docs/performance.md).
"""

from repro.units import format_bytes, format_seconds
from repro.hpc.systems import titan
from repro.workflow import Mode, WorkflowConfig, run_workflow
from repro.workload import SyntheticAMRConfig, synthetic_amr_trace


def main() -> None:
    # 1. A workload: 20 AMR steps with refinement growth and bursty
    #    analysis intensity, distributed over 1024 virtual ranks.
    trace = synthetic_amr_trace(
        SyntheticAMRConfig(
            steps=20,
            nranks=1024,
            base_cells=5e7,
            sim_cost_per_cell=8.0,
            growth=2.0,
            analysis_growth_exponent=0.5,
            seed=42,
        ),
        name="quickstart",
    )

    # 2. Three workflow configurations sharing the same machine shape.
    def config(mode: Mode) -> WorkflowConfig:
        return WorkflowConfig(
            mode=mode,
            sim_cores=1024,
            staging_cores=64,  # the paper's 16:1 ratio
            spec=titan(),
            analysis_cost_per_cell=0.45,
        )

    print(f"workload: {len(trace)} steps, "
          f"{format_bytes(trace.total_data_bytes)} of analysis data\n")
    header = f"{'mode':22s} {'end-to-end':>12s} {'overhead':>10s} {'moved':>12s}"
    print(header)
    print("-" * len(header))
    for mode in (Mode.STATIC_INSITU, Mode.STATIC_INTRANSIT,
                 Mode.ADAPTIVE_MIDDLEWARE):
        result = run_workflow(config(mode), trace)
        print(
            f"{mode.value:22s} "
            f"{format_seconds(result.end_to_end_seconds):>12s} "
            f"{format_seconds(result.overhead_seconds):>10s} "
            f"{format_bytes(result.data_moved_bytes):>12s}"
        )

    print("\nAdaptive placement analyses each step wherever it finishes "
          "soonest: in-transit\nwhen the staging cores are idle, in-situ when "
          "they are backed up (paper Fig. 4).")


if __name__ == "__main__":
    main()
