"""Table 2: in-transit core usage histogram under global adaptation."""

from repro.core.actions import Placement
from repro.experiments import table2_utilization
from repro.experiments.common import SCALES
from repro.experiments.common import run_mode_at_scale
from repro.workflow.config import Mode


def test_table2_utilization():
    """Table 2: some in-transit steps use less than the preallocation."""
    rows = table2_utilization.run_table2()
    assert table2_utilization.render(rows)
    for scale, row in zip(SCALES, rows):
        total = sum(row.buckets.values())
        result = run_mode_at_scale(scale, Mode.GLOBAL, with_hints=True)
        # Buckets cover exactly the in-transit steps.
        assert total == result.placement_counts()[Placement.IN_TRANSIT]
        # Under global adaptation a meaningful share of steps uses less
        # than the full preallocation (the table's point).
        partial = total - row.buckets["100%"]
        assert partial > 0
