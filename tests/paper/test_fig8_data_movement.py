"""Figure 8: data movement, in-transit vs adaptive placement."""

from repro.experiments import fig8_data_movement


def test_fig8_data_movement():
    """Fig. 8: adaptive placement moves less data than static in-transit."""
    rows = fig8_data_movement.run_fig8()
    assert fig8_data_movement.render(rows)
    for row in rows:
        # Adaptive placement keeps a share of steps in-situ, cutting the
        # aggregated transfer volume (paper: 39-50%).
        assert row.adaptive_bytes < row.intransit_bytes
        assert row.movement_cut > 10.0
