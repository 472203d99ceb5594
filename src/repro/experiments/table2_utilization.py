"""Table 2: actual in-transit core utilization under global adaptation.

For each scale the table histograms the time steps whose in-transit
analysis used 100 % / 75 % / 50 % / <50 % of the preallocated staging
cores.  Under global adaptation the application layer's reduction shrinks
the in-transit work, so the resource layer frequently activates only a
fraction of the preallocation -- the paper highlights the 4K and 16K
cases using under half the cores on some steps.
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
from repro.workflow.metrics import core_usage_histogram

__all__ = ["Table2Row", "render"]


@dataclass(frozen=True)
class Table2Row:
    """One scale's histogram row."""

    case: str
    total_steps: int
    buckets: dict[str, int]


def _row(scale: ScaleConfig) -> Table2Row:
    """One scale's core-usage histogram (one sweep point)."""
    result = run_mode_at_scale(scale, Mode.GLOBAL, with_hints=True)
    return Table2Row(
        case=f"{scale.label}:{scale.staging_cores}",
        total_steps=len(result.steps),
        buckets=core_usage_histogram(result),
    )


grid, run_point, merge = per_scale_sweep(_row)


def render(rows: list[Table2Row]) -> str:
    headers = ["case", "total steps", "100% cores", "75% cores", "50% cores",
               "<50% cores", "paper (100/75/50/<50)"]
    body = []
    for row in rows:
        paper = PAPER.table2.get(row.case)
        paper_text = "/".join(str(v) for v in paper[1:]) if paper else "-"
        body.append([
            row.case,
            str(row.total_steps),
            str(row.buckets["100%"]),
            str(row.buckets["75%"]),
            str(row.buckets["50%"]),
            str(row.buckets["<50%"]),
            paper_text,
        ])
    return render_table(
        headers, body,
        title="Table 2: in-transit core utilization while performing in-transit analysis",
    )
