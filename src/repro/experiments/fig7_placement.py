"""Figure 7: end-to-end execution time, static vs adaptive placement.

Reproduces the comparison of cumulative end-to-end execution time between
static in-situ, static in-transit and adaptive placement of the
visualization service at 2K/4K/8K/16K simulation cores (16:1 staging
ratio).  The paper reports adaptive overhead reductions of
50.00/50.31/50.50/56.30 % vs in-situ and 75.42/38.78/21.29/48.22 % vs
in-transit, with adaptive overhead below 6 % of simulation time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    PAPER,
    ScaleConfig,
    per_scale_sweep,
    render_table,
    run_mode_at_scale,
)
from repro.workflow.config import Mode
from repro.workflow.metrics import WorkflowResult

__all__ = ["Fig7Row", "render"]

_MODES = (Mode.STATIC_INSITU, Mode.STATIC_INTRANSIT, Mode.ADAPTIVE_MIDDLEWARE)


@dataclass(frozen=True)
class Fig7Row:
    """One scale's bar group."""

    scale: str
    results: dict[Mode, WorkflowResult]

    @property
    def adaptive(self) -> WorkflowResult:
        return self.results[Mode.ADAPTIVE_MIDDLEWARE]

    def overhead_cut_vs(self, mode: Mode) -> float:
        """Percent overhead reduction of adaptive placement vs ``mode``."""
        base = self.results[mode].overhead_seconds
        if base <= 0:
            return 0.0
        return 100.0 * (1 - self.adaptive.overhead_seconds / base)


def _row(scale: ScaleConfig) -> Fig7Row:
    """All three placement modes at one scale (one sweep point)."""
    results = {mode: run_mode_at_scale(scale, mode) for mode in _MODES}
    return Fig7Row(scale=scale.label, results=results)


grid, run_point, merge = per_scale_sweep(_row)


def render(rows: list[Fig7Row]) -> str:
    """The figure's bar values plus the paper-vs-measured reductions."""
    headers = [
        "cores", "mode", "sim time (s)", "overhead (s)", "end-to-end (s)",
        "ovh/sim",
    ]
    body = []
    for row in rows:
        for mode in _MODES:
            r = row.results[mode]
            body.append([
                row.scale,
                mode.value,
                f"{r.total_sim_seconds:.1f}",
                f"{r.overhead_seconds:.1f}",
                f"{r.end_to_end_seconds:.1f}",
                f"{r.overhead_fraction * 100:.1f}%",
            ])
    table = render_table(headers, body, title="Fig. 7: end-to-end execution time")

    cmp_headers = [
        "cores",
        "ovh cut vs in-situ",
        "paper",
        "ovh cut vs in-transit",
        "paper",
    ]
    cmp_rows = []
    for row, p_ins, p_int in zip(
        rows, PAPER.fig7_overhead_cut_vs_insitu, PAPER.fig7_overhead_cut_vs_intransit
    ):
        cmp_rows.append([
            row.scale,
            f"{row.overhead_cut_vs(Mode.STATIC_INSITU):.1f}%",
            f"{p_ins:.1f}%",
            f"{row.overhead_cut_vs(Mode.STATIC_INTRANSIT):.1f}%",
            f"{p_int:.1f}%",
        ])
    comparison = render_table(cmp_headers, cmp_rows,
                              title="Adaptive overhead reduction (measured vs paper)")
    return table + "\n\n" + comparison
