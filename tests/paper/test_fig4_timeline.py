"""Figure 4: placement decision timeline."""

from repro.core.actions import Placement
from repro.experiments import fig4_timeline


def test_fig4_timeline():
    """Fig. 4: in-transit while staging idles, in-situ around the burst."""
    outcome = fig4_timeline.run_fig4()
    assert fig4_timeline.render(outcome)
    placements = [m.placement for m in outcome.result.steps]
    # ts=1, 2: in-transit processors idle -> analysis placed in-transit.
    assert placements[0] is Placement.IN_TRANSIT
    assert placements[1] is Placement.IN_TRANSIT
    # Around the ts~30 burst the in-transit side is busy and slower, so at
    # least one step is diverted in-situ.
    burst_zone = placements[fig4_timeline.BURST_STEPS[0] - 1:
                            fig4_timeline.BURST_STEPS[-1] + 1]
    assert Placement.IN_SITU in burst_zone
