"""Figure 1: peak-memory distribution, Polytropic Gas.

Checks the figure's two claims: erratic (bursty) memory growth and strong
cross-rank imbalance.
"""

from repro.experiments import fig1_memory


def test_fig1_memory():
    """Fig. 1: memory grows erratically and is imbalanced across ranks."""
    result = fig1_memory.run_fig1(50)
    assert fig1_memory.render(result)
    # Growth: the refined region expands over the run.
    assert result.peak[-5:].mean() > result.peak[:5].mean()
    # Erratic: increments arrive in bursts (regrids), not smoothly.
    assert result.growth_erraticness > 1.0
    # Imbalance: the peak rank holds several times the median footprint.
    assert result.imbalance.mean() > 2.0
