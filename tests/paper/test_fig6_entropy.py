"""Figure 6: entropy-based down-sampling fidelity."""

from repro.experiments import fig6_entropy


def test_fig6_entropy():
    """Fig. 6: reducing low-entropy blocks keeps the isosurface intact."""
    result = fig6_entropy.run_fig6()
    assert fig6_entropy.render(result)
    # Entropies span a wide range (paper quotes 5.14-9.85 at the finest level).
    spread = result.entropies.max() - result.entropies.min()
    assert spread > 2.0
    # A meaningful share of blocks is reduced (but never the feature-bearing
    # shock blocks), saving a large share of bytes -- the blast's ambient
    # region dominates the volume.
    assert 0.3 <= result.reduced_fraction <= 0.97
    assert result.bytes_saved_fraction > 0.15
    # The core claim: reducing low-entropy blocks loses far less information
    # than the same reduction would lose on high-entropy blocks...
    assert result.low_entropy_error < 0.5 * result.high_entropy_error_if_reduced
    # ...and the isosurface structure survives (neither destroyed nor
    # wildly inflated by reconstruction aliasing).
    assert 0.85 < result.area_ratio < 1.35
