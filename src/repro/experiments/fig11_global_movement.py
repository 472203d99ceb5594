"""Figure 11: total data movement, global cross-layer vs local adaptation.

Global adaptation sends *more* steps in-transit (Table 2) yet moves less
data overall because the application layer reduces resolution first --
the paper reports reductions of 45.93/17.25/5.76/32.41 % vs local-only
adaptation.
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
from repro.units import format_bytes
from repro.workflow.config import Mode

__all__ = ["Fig11Row", "render"]


@dataclass(frozen=True)
class Fig11Row:
    """One scale's Local/Global movement pair."""

    scale: str
    local_bytes: float
    global_bytes: float
    local_intransit_steps: int
    global_intransit_steps: int

    @property
    def movement_cut(self) -> float:
        """Percent reduction of movement under global adaptation."""
        if self.local_bytes <= 0:
            return 0.0
        return 100.0 * (1 - self.global_bytes / self.local_bytes)


def _row(scale: ScaleConfig) -> Fig11Row:
    """Local and global movement at one scale (one sweep point)."""
    from repro.core.actions import Placement

    local = run_mode_at_scale(scale, Mode.ADAPTIVE_MIDDLEWARE)
    global_ = run_mode_at_scale(scale, Mode.GLOBAL, with_hints=True)
    return Fig11Row(
        scale=scale.label,
        local_bytes=local.data_moved_bytes,
        global_bytes=global_.data_moved_bytes,
        local_intransit_steps=local.placement_counts()[Placement.IN_TRANSIT],
        global_intransit_steps=global_.placement_counts()[Placement.IN_TRANSIT],
    )


grid, run_point, merge = per_scale_sweep(_row)


def render(rows: list[Fig11Row]) -> str:
    headers = ["cores", "local movement", "global movement", "reduction",
               "paper", "in-transit steps (local->global)"]
    body = []
    for row, paper_cut in zip(rows, PAPER.fig11_movement_cut_vs_local):
        body.append([
            row.scale,
            format_bytes(row.local_bytes),
            format_bytes(row.global_bytes),
            f"{row.movement_cut:.1f}%",
            f"{paper_cut:.1f}%",
            f"{row.local_intransit_steps} -> {row.global_intransit_steps}",
        ])
    return render_table(headers, body,
                        title="Fig. 11: data movement, global vs local adaptation")
