"""Unit tests for the calibration audit."""

import pytest

from repro.observability import (
    PredictionLedger,
    calibrate,
    calibration_report,
    placement_regret,
)
from repro.workflow import WorkflowResult, run_record


def _report(ledger):
    """The audit text of a run record holding ``ledger``."""
    return calibration_report(
        run_record(WorkflowResult(mode="global"), ledger=ledger)
    )


def _ledger_with_errors(rels):
    """A ledger whose insitu_time records have the given relative errors."""
    ledger = PredictionLedger()
    for step, rel in enumerate(rels):
        ledger.predict("insitu_time", step, (1.0 + rel) * 10.0)
        ledger.resolve("insitu_time", step, 10.0)
    return ledger


class TestCalibrate:
    def test_bias_and_mape(self):
        stats = calibrate(_ledger_with_errors([0.1, -0.1, 0.2]))
        cal = stats["insitu_time"]
        assert cal.count == 3
        assert cal.bias_pct == pytest.approx(100 * (0.1 - 0.1 + 0.2) / 3)
        assert cal.mape_pct == pytest.approx(100 * (0.1 + 0.1 + 0.2) / 3)
        assert cal.max_ape_pct == pytest.approx(20.0)

    def test_ema_curve_smooths_in_observation_order(self):
        stats = calibrate(_ledger_with_errors([0.5, 0.0]), alpha=0.5)
        curve = stats["insitu_time"].ema_curve
        assert curve == pytest.approx((50.0, 25.0))
        assert stats["insitu_time"].final_ema_pct == pytest.approx(25.0)

    def test_pending_and_skipped_are_counted_not_scored(self):
        ledger = PredictionLedger()
        ledger.predict("transfer_time", 0, 1.0)  # stays pending
        ledger.predict("transfer_time", 1, 1.0)
        ledger.resolve("transfer_time", 1, 0.0)  # realized 0: no rel error
        cal = calibrate(ledger)["transfer_time"]
        assert cal.count == 0
        assert cal.pending == 1
        assert cal.skipped == 1
        assert cal.bias_pct == 0.0

    def test_empty_ledger_gives_empty_stats(self):
        assert calibrate(PredictionLedger()) == {}


class TestPlacementRegret:
    def test_summary_over_scored_outcomes(self):
        ledger = PredictionLedger()
        for step, (chosen, block, finished) in enumerate(
            [("in_transit", 0.0, 5.0), ("in_transit", 3.0, 25.0)]
        ):
            ledger.record_placement(
                step, chosen, est_insitu=1.0, est_intransit=2.0,
                insitu_true=1.0, backlog_true=0.0, service_true=2.0,
                dispatched_at=float(step),
            )
            ledger.resolve_placement(step, block_seconds=block,
                                     finished_at=finished)
        ledger.finalize(sim_end=20.0)
        summary = placement_regret(ledger)
        assert summary.decisions == 2
        assert summary.scored == 2
        # Step 0 hid entirely; step 1 paid 3s stall + 5s tail vs 1s in-situ.
        assert summary.flips == 1
        assert summary.total_regret_seconds == pytest.approx(7.0)
        assert summary.worst_step == 1
        assert summary.worst_regret_seconds == pytest.approx(7.0)
        assert summary.flip_fraction == pytest.approx(0.5)

    def test_empty_ledger_summary(self):
        summary = placement_regret(PredictionLedger())
        assert summary.decisions == 0
        assert summary.flip_fraction == 0.0
        assert summary.worst_step is None


class TestReport:
    def test_report_contains_table_and_regret_block(self):
        ledger = _ledger_with_errors([0.1, -0.2])
        ledger.record_placement(
            0, "in_situ", est_insitu=1.0, est_intransit=2.0,
            insitu_true=1.0, backlog_true=0.0, service_true=1.0,
            dispatched_at=0.0,
        )
        ledger.resolve_placement(0, realized_insitu=1.0)
        ledger.finalize(sim_end=100.0)
        report = _report(ledger)
        assert "insitu_time" in report
        assert "MAPE%" in report
        assert "placement regret" in report
        assert "decisions scored : 1/1" in report

    def test_empty_report_renders(self):
        report = _report(PredictionLedger())
        assert "(no predictions recorded)" in report
        assert "(no placement decisions recorded)" in report

    def test_unmatched_note_appears(self):
        ledger = PredictionLedger()
        ledger.resolve("insitu_time", 0, 1.0)
        assert "no\nmatching prediction" not in _report(ledger)
        assert "1 realized values" in _report(ledger)

    def test_near_zero_errors_render_a_flat_strip(self):
        # Float residue must not be normalized into a fake ramp.
        ledger = PredictionLedger()
        for step in range(4):
            ledger.predict("transfer_time", step, 1.0 + 1e-14 * step)
            ledger.resolve("transfer_time", step, 1.0)
        report = _report(ledger)
        row = next(line for line in report.splitlines()
                   if line.startswith("transfer_time"))
        assert "@" not in row
