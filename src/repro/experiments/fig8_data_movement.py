"""Figure 8: total data movement, static in-transit vs adaptive placement.

The paper reports the aggregated in-situ -> in-transit transfer volume
dropping by 50.00/48.00/47.90/39.04 % at 2K/4K/8K/16K cores when adaptive
placement keeps roughly half the steps' analysis in-situ.
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

__all__ = ["Fig8Row", "render"]


@dataclass(frozen=True)
class Fig8Row:
    """One scale's pair of bars."""

    scale: str
    intransit_bytes: float
    adaptive_bytes: float

    @property
    def movement_cut(self) -> float:
        """Percent reduction of data movement with adaptive placement."""
        if self.intransit_bytes <= 0:
            return 0.0
        return 100.0 * (1 - self.adaptive_bytes / self.intransit_bytes)


def _row(scale: ScaleConfig) -> Fig8Row:
    """Both placements' movement at one scale (one sweep point)."""
    static = run_mode_at_scale(scale, Mode.STATIC_INTRANSIT)
    adaptive = run_mode_at_scale(scale, Mode.ADAPTIVE_MIDDLEWARE)
    return Fig8Row(
        scale=scale.label,
        intransit_bytes=static.data_moved_bytes,
        adaptive_bytes=adaptive.data_moved_bytes,
    )


grid, run_point, merge = per_scale_sweep(_row)


def render(rows: list[Fig8Row]) -> str:
    headers = ["cores", "in-transit placement", "adaptive placement",
               "reduction", "paper"]
    body = []
    for row, paper_cut in zip(rows, PAPER.fig8_movement_cut):
        body.append([
            row.scale,
            format_bytes(row.intransit_bytes),
            format_bytes(row.adaptive_bytes),
            f"{row.movement_cut:.1f}%",
            f"{paper_cut:.1f}%",
        ])
    return render_table(headers, body,
                        title="Fig. 8: aggregated in-situ -> in-transit data transfers")
