"""Figure 10: global cross-layer vs local adaptation."""

from repro.experiments import fig10_global
from repro.experiments.parallel import SWEEPS


def test_fig10_global():
    """Fig. 10: global adaptation cuts overhead beyond local adaptation."""
    rows = SWEEPS["fig10"].result()
    assert fig10_global.render(rows)
    for row in rows:
        # Global adaptation cuts overhead further at every scale
        # (paper: 52-98%).
        assert row.global_.overhead_seconds < row.local.overhead_seconds
        assert row.overhead_cut > 30.0
        # All three layers act: factors were applied...
        assert any(f > 1 for f in row.global_.factors_used())
        # ...and the staging allocation varied from the static preallocation.
        assert row.global_.staging_cores_series().min() < row.global_.staging_total_cores
