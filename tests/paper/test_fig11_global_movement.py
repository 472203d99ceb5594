"""Figure 11: data movement, global vs local adaptation."""

from repro.experiments import fig11_global_movement


def test_fig11_global_movement():
    """Fig. 11: global adaptation moves less data than local adaptation."""
    rows = fig11_global_movement.run_fig11()
    assert fig11_global_movement.render(rows)
    for row in rows:
        # "the data reduction from application layer adaptation still plays
        # a dominant role" -- movement drops despite more in-transit steps.
        assert row.global_bytes < row.local_bytes
        assert row.movement_cut > 5.0
        # More (or equal) steps run in-transit under global adaptation.
        assert row.global_intransit_steps >= row.local_intransit_steps
