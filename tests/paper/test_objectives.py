"""Section 3: the user-preference objectives."""

from repro.core.preferences import Objective
from repro.experiments import objectives
from repro.experiments.parallel import SWEEPS


def test_objectives_pareto():
    """Section 3: each objective wins (or ties within 1%) its own metric."""
    results = SWEEPS["objectives"].result()
    assert objectives.render(results)
    tts = results[Objective.MINIMIZE_TIME_TO_SOLUTION]
    movement = results[Objective.MINIMIZE_DATA_MOVEMENT]
    utilization = results[Objective.MAXIMIZE_RESOURCE_UTILIZATION]

    # Each objective wins (or ties within 1%) its own metric.  Note the
    # movement objective can incidentally match time-to-solution here:
    # with the largest hinted reduction applied, all-in-situ analysis is
    # nearly free -- the coupling Fig. 10's discussion points at.
    best_e2e = min(r.end_to_end_seconds for r in results.values())
    assert tts.end_to_end_seconds <= best_e2e * 1.01
    assert movement.data_moved_bytes == min(
        r.data_moved_bytes for r in results.values()
    )
    assert utilization.utilization_efficiency == max(
        r.utilization_efficiency for r in results.values()
    )
    # The movement objective's signature: (almost) nothing crosses the
    # network.
    assert movement.data_moved_bytes < 0.2 * tts.data_moved_bytes
