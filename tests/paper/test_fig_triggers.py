"""Trigger-policy sweep: monitoring overhead vs adaptation lag.

Not a figure of the paper: the sweep behind docs/triggers.md, which
compares the Monitor's trigger-detection policies.
"""

from repro.experiments import fig_triggers


def test_fig_triggers():
    """Triggers: entropy-percentile halves monitor cost at equal quality."""
    result = fig_triggers.run_fig_triggers()
    assert fig_triggers.render(result)
    fixed = result.row("fixed-interval", "none")
    entropy = result.row("entropy-percentile", "none")
    # The percentile-sampling budget is bounded (82 probes per sampled
    # step at eps=0.15) and rank-count independent, so the trigger's
    # monitor cost lands well under the every-step full snapshots.
    assert entropy.monitor_cost <= 0.50 * fixed.monitor_cost
    # ... at equal adaptation quality: Eq.-6 end-to-end currency stays
    # within 5% of the every-step baseline.
    assert (
        abs(entropy.end_to_end_seconds - fixed.end_to_end_seconds)
        <= 0.05 * fixed.end_to_end_seconds
    )
    # The baseline never lags (it samples every step); the trigger's
    # staleness stays bounded by its max-interval fallback.
    assert fixed.mean_lag_steps == 0.0
    assert entropy.mean_lag_steps < 2.0
    # Free-rider policies (indicators the driver already computes) spend
    # zero sampling budget.
    assert result.row("imbalance", "none").budget_used == 0
    assert result.row("staging-pressure", "none").budget_used == 0
    # Under the blackout scenario every policy still completes the run.
    for policy in fig_triggers.POLICY_NAMES:
        assert result.row(policy, "blackout").end_to_end_seconds > 0
