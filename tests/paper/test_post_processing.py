"""Section 6: post-processing I/O is infeasible at scale.

"The increasing performance gap between computation and I/O in high-end
computing environment renders traditional post-processing data analysis
approach based on disk I/O infeasible" (Section 6).  Not a numbered
figure, but the comparison every simulation-time approach is judged
against -- so we regenerate it: the same 4K-core workload under
post-processing, static in-situ, static in-transit and adaptive
placement, with time and energy.
"""

from repro.experiments.common import (
    ANALYSIS_COST_PER_CELL,
    SCALES,
    advection_trace,
    render_table,
)
from repro.hpc.systems import titan
from repro.units import format_bytes, format_seconds
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import run_workflow

_SCALE = SCALES[1]
_MODES = (Mode.POST_PROCESSING, Mode.STATIC_INSITU, Mode.STATIC_INTRANSIT,
          Mode.ADAPTIVE_MIDDLEWARE)


def run_comparison():
    trace = advection_trace(_SCALE)
    results = {}
    for mode in _MODES:
        config = WorkflowConfig(
            mode=mode,
            sim_cores=_SCALE.sim_cores,
            staging_cores=_SCALE.staging_cores,
            spec=titan(),
            analysis_cost_per_cell=ANALYSIS_COST_PER_CELL,
        )
        results[mode] = run_workflow(config, trace)
    return results


def test_post_processing_baseline():
    """Section 6: post-processing is slowest and burns the most energy."""
    results = run_comparison()
    rows = []
    for mode in _MODES:
        r = results[mode]
        rows.append([
            mode.value,
            format_seconds(r.end_to_end_seconds),
            format_seconds(r.overhead_seconds),
            format_bytes(r.pfs_bytes_written + r.pfs_bytes_read),
            f"{r.energy_joules / 1e9:.2f} GJ",
        ])
    assert render_table(
        ["mode", "end-to-end", "overhead", "PFS traffic", "energy"],
        rows, title="Post-processing vs simulation-time analysis (4K cores)")

    post = results[Mode.POST_PROCESSING]
    adaptive = results[Mode.ADAPTIVE_MIDDLEWARE]
    # Post-processing is the slowest configuration...
    for mode in _MODES[1:]:
        assert results[mode].end_to_end_seconds < post.end_to_end_seconds
    # ...by a wide margin against adaptive placement...
    assert post.overhead_seconds > 3 * adaptive.overhead_seconds
    # ...and it burns more energy.
    assert post.energy_joules > adaptive.energy_joules
    # Its PFS round-trips the full output; simulation-time modes write none.
    assert post.pfs_bytes_written > 0 and post.pfs_bytes_read > 0
    assert adaptive.pfs_bytes_written == 0
