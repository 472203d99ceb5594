"""Figure 7: end-to-end time, static vs adaptive placement."""

from repro.experiments import fig7_placement
from repro.experiments.common import PAPER
from repro.experiments.parallel import SWEEPS
from repro.workflow.config import Mode


def test_fig7_placement():
    """Fig. 7: adaptive placement beats both static modes at every scale."""
    rows = SWEEPS["fig7"].result()
    assert fig7_placement.render(rows)
    for row in rows:
        adaptive = row.adaptive
        insitu = row.results[Mode.STATIC_INSITU]
        intransit = row.results[Mode.STATIC_INTRANSIT]
        # The headline: adaptive placement minimizes time-to-solution.
        assert adaptive.end_to_end_seconds <= insitu.end_to_end_seconds
        assert adaptive.end_to_end_seconds <= intransit.end_to_end_seconds
        # Overhead reductions are substantial at every scale.
        assert row.overhead_cut_vs(Mode.STATIC_INSITU) > 25.0
        assert row.overhead_cut_vs(Mode.STATIC_INTRANSIT) > 25.0
        # "The end-to-end overhead in all the cases are less than 6% of the
        # simulation time" for the adaptive runs.
        assert adaptive.overhead_fraction < PAPER.fig7_overhead_fraction_bound
