"""Figure 9 and Eq. 12: adaptive in-transit allocation."""

from repro.experiments import fig9_resource


def test_fig9_resource():
    """Fig. 9 + Eq. 12: staging grows with refinement at higher utilization."""
    result = fig9_resource.run_fig9()
    assert fig9_resource.render(result)
    adaptive = result.adaptive_series
    # Start small: "only around 50 in-transit cores are needed".
    assert adaptive[:4].mean() < 100
    # Growth: refinement demands more staging cores later in the run.
    assert adaptive[-10:].mean() > 1.5 * adaptive[:4].mean()
    # Never exceeds the 256-core preallocation.
    assert adaptive.max() <= fig9_resource.STAGING_CORES
    # Eq. 12: utilization efficiency strongly improved (paper: 87% vs 55%).
    assert result.adaptive.utilization_efficiency > 0.75
    assert result.static.utilization_efficiency < 0.65
    assert (result.adaptive.utilization_efficiency
            > result.static.utilization_efficiency + 0.2)
    # The saving does not cost time-to-solution (same within 10%).
    assert (result.adaptive.end_to_end_seconds
            <= result.static.end_to_end_seconds * 1.10)
