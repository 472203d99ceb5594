"""Figure 10: global cross-layer adaptation vs local middleware adaptation.

Same workflow and scales as Fig. 7, plus the Fig. 5 down-sampling hints
for the application layer.  The paper reports global end-to-end overhead
dropping 52.16/84.22/97.84/88.87 % vs local-only middleware adaptation.
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

__all__ = ["Fig10Row", "render"]


@dataclass(frozen=True)
class Fig10Row:
    """One scale's Local/Global bar pair."""

    scale: str
    local: WorkflowResult
    global_: WorkflowResult

    @property
    def overhead_cut(self) -> float:
        """Percent overhead reduction of global vs local adaptation."""
        if self.local.overhead_seconds <= 0:
            return 0.0
        return 100.0 * (1 - self.global_.overhead_seconds / self.local.overhead_seconds)


def _row(scale: ScaleConfig) -> Fig10Row:
    """Local and global adaptation at one scale (one sweep point)."""
    local = run_mode_at_scale(scale, Mode.ADAPTIVE_MIDDLEWARE)
    global_ = run_mode_at_scale(scale, Mode.GLOBAL, with_hints=True)
    return Fig10Row(scale=scale.label, local=local, global_=global_)


grid, run_point, merge = per_scale_sweep(_row)


def render(rows: list[Fig10Row]) -> str:
    headers = ["cores", "config", "sim time (s)", "overhead (s)",
               "end-to-end (s)", "ovh cut", "paper"]
    body = []
    for row, paper_cut in zip(rows, PAPER.fig10_overhead_cut_vs_local):
        body.append([
            row.scale, "Local",
            f"{row.local.total_sim_seconds:.1f}",
            f"{row.local.overhead_seconds:.1f}",
            f"{row.local.end_to_end_seconds:.1f}",
            "", "",
        ])
        body.append([
            row.scale, "Global",
            f"{row.global_.total_sim_seconds:.1f}",
            f"{row.global_.overhead_seconds:.1f}",
            f"{row.global_.end_to_end_seconds:.1f}",
            f"{row.overhead_cut:.1f}%",
            f"{paper_cut:.1f}%",
        ])
    return render_table(
        headers, body,
        title="Fig. 10: end-to-end time, global cross-layer vs local adaptation",
    )
