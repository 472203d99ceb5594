"""Unit tests for the prediction ledger."""

import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    QUANTITIES,
    PlacementOutcome,
    PredictionLedger,
    PredictionRecord,
)


class TestPredictResolve:
    def test_pairs_realization_with_oldest_pending(self):
        ledger = PredictionLedger()
        first = ledger.predict("insitu_time", 3, 1.0)
        second = ledger.predict("insitu_time", 3, 2.0)
        resolved = ledger.resolve("insitu_time", 3, 1.5)
        assert resolved is first
        assert first.realized == 1.5
        assert not second.resolved

    def test_unknown_quantity_is_an_error(self):
        with pytest.raises(ObservabilityError, match="unknown prediction"):
            PredictionLedger().predict("warp_factor", 0, 9.0)

    def test_unmatched_realization_is_counted_not_raised(self):
        ledger = PredictionLedger()
        assert ledger.resolve("insitu_time", 7, 1.0) is None
        assert ledger.unmatched == 1
        assert len(ledger) == 0

    def test_has_pending_tracks_the_queue(self):
        ledger = PredictionLedger()
        assert not ledger.has_pending("memory_demand", 2)
        ledger.predict("memory_demand", 2, 1e9)
        assert ledger.has_pending("memory_demand", 2)
        ledger.resolve("memory_demand", 2, 1e9)
        assert not ledger.has_pending("memory_demand", 2)

    def test_clock_stamps_predictions_and_realizations(self):
        now = [5.0]
        ledger = PredictionLedger(clock=lambda: now[0])
        record = ledger.predict("sim_step_time", 0, 10.0)
        now[0] = 8.0
        ledger.resolve("sim_step_time", 0, 11.0)
        assert record.predicted_at == 5.0
        assert record.realized_at == 8.0

    def test_error_properties(self):
        record = PredictionRecord(seq=0, quantity="insitu_time", step=0,
                                  predicted=12.0, predicted_at=0.0)
        assert record.signed_relative_error is None
        record.realized = 10.0
        assert record.signed_relative_error == pytest.approx(0.2)

    def test_zero_realization_yields_no_relative_error(self):
        record = PredictionRecord(seq=0, quantity="insitu_time", step=0,
                                  predicted=1.0, predicted_at=0.0,
                                  realized=0.0)
        assert record.signed_relative_error is None

    def test_filters_and_counts(self):
        ledger = PredictionLedger()
        ledger.predict("insitu_time", 0, 1.0)
        ledger.predict("transfer_time", 0, 2.0)
        ledger.predict("insitu_time", 1, 3.0)
        ledger.resolve("insitu_time", 0, 1.0)
        assert len(ledger.records("insitu_time")) == 2
        assert len(ledger.records(step=0)) == 2
        assert ledger.quantities_seen() == {"insitu_time", "transfer_time"}


class TestPlacementScoring:
    def test_insitu_regret_when_staging_was_free(self):
        ledger = PredictionLedger()
        ledger.record_placement(
            0, "in_situ", est_insitu=1.0, est_intransit=5.0,
            insitu_true=1.0, backlog_true=0.0, service_true=2.0,
            dispatched_at=10.0,
        )
        ledger.resolve_placement(0, realized_insitu=1.0)
        # The run continued long past this step: the staged job would
        # have hidden entirely inside the remaining simulation window.
        ledger.finalize(sim_end=100.0)
        (outcome,) = ledger.placements
        assert outcome.scored
        assert outcome.chosen_cost == pytest.approx(1.0)
        assert outcome.alt_cost == pytest.approx(0.0)
        assert outcome.flipped
        assert outcome.regret == pytest.approx(1.0)

    def test_insitu_is_right_when_backlog_outlives_the_run(self):
        ledger = PredictionLedger()
        ledger.record_placement(
            0, "in_situ", est_insitu=1.0, est_intransit=9.0,
            insitu_true=1.0, backlog_true=8.0, service_true=2.0,
            dispatched_at=10.0,
        )
        ledger.resolve_placement(0, realized_insitu=1.0)
        # sim ends at 12: shipping would have left 8 + 2 - (12-10-1) = 9s
        # of backlog against a 1s window -> in-situ at 1s was correct.
        ledger.finalize(sim_end=12.0)
        (outcome,) = ledger.placements
        assert outcome.chosen_cost == pytest.approx(1.0)
        assert outcome.alt_cost == pytest.approx(9.0)
        assert not outcome.flipped
        assert outcome.regret == 0.0

    def test_intransit_costs_stall_plus_unhidden_tail(self):
        ledger = PredictionLedger()
        ledger.record_placement(
            2, "in_transit", est_insitu=4.0, est_intransit=3.0,
            insitu_true=4.0, backlog_true=0.0, service_true=3.0,
            dispatched_at=20.0,
        )
        ledger.resolve_placement(2, block_seconds=1.5, finished_at=34.0)
        ledger.finalize(sim_end=30.0)
        (outcome,) = ledger.placements
        assert outcome.chosen_cost == pytest.approx(1.5 + 4.0)
        assert outcome.alt_cost == pytest.approx(4.0)
        assert outcome.flipped
        assert outcome.regret == pytest.approx(1.5)

    def test_fully_hidden_intransit_has_zero_cost(self):
        ledger = PredictionLedger()
        ledger.record_placement(
            2, "in_transit", est_insitu=4.0, est_intransit=3.0,
            insitu_true=4.0, backlog_true=0.0, service_true=3.0,
            dispatched_at=20.0,
        )
        ledger.resolve_placement(2, block_seconds=0.0, finished_at=25.0)
        ledger.finalize(sim_end=30.0)
        (outcome,) = ledger.placements
        assert outcome.chosen_cost == 0.0
        assert outcome.regret == 0.0

    def test_unresolved_placement_stays_unscored(self):
        ledger = PredictionLedger()
        ledger.record_placement(
            0, "in_situ", est_insitu=1.0, est_intransit=2.0,
            insitu_true=1.0, backlog_true=0.0, service_true=1.0,
            dispatched_at=0.0,
        )
        ledger.finalize(sim_end=10.0)
        (outcome,) = ledger.placements
        assert not outcome.scored
        assert outcome.regret == 0.0

    def test_resolving_unrecorded_step_is_a_noop(self):
        ledger = PredictionLedger()
        ledger.resolve_placement(5, block_seconds=1.0, finished_at=2.0)
        assert ledger.placements == []


class TestRoundTrip:
    def test_quantities_registry_is_nonempty_and_closed(self):
        assert QUANTITIES
        assert all(isinstance(v, str) and v for v in QUANTITIES.values())

    def test_placement_outcome_roundtrip(self):
        outcome = PlacementOutcome(
            step=3, chosen="in_transit", est_insitu=1.0, est_intransit=2.0,
            insitu_true=1.1, backlog_true=0.5, service_true=1.5,
            dispatched_at=7.0, block_seconds=0.25, finished_at=12.0,
            scored=True, chosen_cost=2.0, alt_cost=1.1,
        )
        # as_dict carries every field: the constructor rebuilds the outcome.
        assert PlacementOutcome(**outcome.as_dict()) == outcome
