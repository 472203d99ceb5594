"""Unit tests for the Prometheus and JSON snapshot exporters."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    PredictionLedger,
    Profiler,
    diff_snapshots,
    export_snapshot,
    load_snapshot,
    prometheus_text,
    render_diff,
)


def _registry():
    metrics = MetricsRegistry()
    metrics.counter("workflow.steps").inc(10)
    metrics.gauge("staging.active_cores").set(32)
    timer = metrics.timer("staging.service_seconds")
    timer.observe(2.0)
    timer.observe(4.0)
    return metrics


def _ledger():
    ledger = PredictionLedger()
    ledger.predict("insitu_time", 0, 1.2)
    ledger.resolve("insitu_time", 0, 1.0)
    ledger.predict("insitu_time", 1, 1.0)  # pending
    ledger.record_placement(
        0, "in_situ", est_insitu=1.2, est_intransit=3.0,
        insitu_true=1.0, backlog_true=0.0, service_true=2.0,
        dispatched_at=0.0,
    )
    ledger.resolve_placement(0, realized_insitu=1.0)
    ledger.finalize(sim_end=50.0)
    return ledger


class TestPrometheus:
    def test_counter_gauge_and_timer_conventions(self):
        text = prometheus_text(metrics=_registry())
        assert "# TYPE repro_workflow_steps_total counter" in text
        assert "repro_workflow_steps_total 10" in text
        assert "# TYPE repro_staging_active_cores gauge" in text
        assert "repro_staging_active_cores 32" in text
        # EmaTimer: gauge + _count/_sum counters.
        assert "# TYPE repro_staging_service_seconds gauge" in text
        assert "repro_staging_service_seconds_count 2" in text
        assert "repro_staging_service_seconds_sum 6" in text

    def test_ledger_series_carry_quantity_labels(self):
        text = prometheus_text(ledger=_ledger())
        assert 'repro_ledger_predictions_total{quantity="insitu_time"} 2' in text
        assert 'repro_ledger_resolved_total{quantity="insitu_time"} 1' in text
        assert 'repro_calibration_mape_pct{quantity="insitu_time"}' in text
        assert "repro_placement_decisions_scored_total 1" in text
        assert "repro_placement_decision_flips_total 1" in text
        assert "repro_ledger_unmatched_total 0" in text

    def test_help_and_type_emitted_once_per_metric(self):
        text = prometheus_text(metrics=_registry(), ledger=_ledger())
        for line in (l for l in text.splitlines() if l.startswith("# TYPE")):
            assert text.count(line) == 1

    def test_empty_inputs_render_empty(self):
        assert prometheus_text() == ""


class TestSnapshot:
    def test_payload_shape_and_write(self, tmp_path):
        path = tmp_path / "run.json"
        payload = export_snapshot(metrics=_registry(), ledger=_ledger(),
                                  label="baseline", path=path)
        assert payload["schema"] == SNAPSHOT_SCHEMA
        assert payload["label"] == "baseline"
        assert payload["metrics"]["workflow.steps"]["value"] == 10
        assert payload["metrics"]["staging.service_seconds"]["count"] == 2
        assert payload["calibration"]["insitu_time"]["count"] == 1
        assert payload["regret"]["scored"] == 1
        assert payload["placements"] == {"0": "in_situ"}
        assert json.loads(path.read_text()) == payload

    def test_load_accepts_dict_text_and_path(self, tmp_path):
        payload = export_snapshot(ledger=_ledger())
        assert load_snapshot(payload) == payload
        assert load_snapshot(json.dumps(payload)) == payload
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(payload))
        assert load_snapshot(path) == payload

    def test_load_rejects_wrong_schema(self):
        with pytest.raises(ObservabilityError, match="schema"):
            load_snapshot({"schema": "something/else"})
        with pytest.raises(ObservabilityError, match="not a snapshot"):
            load_snapshot("{not json")

    def test_ledger_roundtrips_through_the_snapshot(self):
        ledger = _ledger()
        payload = export_snapshot(ledger=ledger)
        clone = PredictionLedger.from_dict(payload["ledger"])
        assert clone.as_dict() == ledger.as_dict()


class TestDiff:
    def test_reports_drift_and_decision_changes(self):
        good = PredictionLedger()
        bad = PredictionLedger()
        for step in range(3):
            good.predict("insitu_time", step, 1.0)
            good.resolve("insitu_time", step, 1.0)
            bad.predict("insitu_time", step, 1.5)
            bad.resolve("insitu_time", step, 1.0)
        for ledger, chosen, block in ((good, "in_situ", 0.0),
                                      (bad, "in_transit", 4.0)):
            ledger.record_placement(
                0, chosen, est_insitu=1.0, est_intransit=2.0,
                insitu_true=1.0, backlog_true=0.0, service_true=2.0,
                dispatched_at=0.0,
            )
            if chosen == "in_situ":
                ledger.resolve_placement(0, realized_insitu=1.0)
            else:
                ledger.resolve_placement(0, block_seconds=block,
                                         finished_at=30.0)
            ledger.finalize(sim_end=20.0)

        a = export_snapshot(ledger=good, label="good")
        b = export_snapshot(ledger=bad, label="bad")
        diff = diff_snapshots(a, b)
        assert diff["labels"] == ("good", "bad")
        assert diff["calibration"]["insitu_time"]["mape_delta"] == pytest.approx(50.0)
        assert diff["regret_delta"] > 0
        assert diff["placement_changes"] == [
            {"step": 0, "a": "in_situ", "b": "in_transit"}
        ]

        text = render_diff(diff)
        assert "good -> bad" in text
        assert "insitu_time" in text
        assert "step 0: in_situ -> in_transit" in text

    def test_disjoint_quantities_render_dashes(self):
        a = export_snapshot(ledger=_ledger(), label="a")
        b = export_snapshot(label="b")
        diff = diff_snapshots(a, b)
        assert diff["calibration"]["insitu_time"]["mape_b"] is None
        assert "-" in render_diff(diff)


def _profiler():
    profiler = Profiler()
    with profiler.span("workflow.run"):
        with profiler.span("sim.run"):
            pass
    return profiler


class TestProfileExport:
    def test_prometheus_emits_span_series(self):
        text = prometheus_text(profiler=_profiler())
        assert "# TYPE repro_span_calls_total counter" in text
        assert 'repro_span_calls_total{span="workflow.run"} 1' in text
        assert 'repro_span_seconds_total{span="workflow.run/sim.run"}' in text
        assert 'repro_span_self_seconds_total{span="workflow.run"}' in text

    def test_snapshot_carries_the_span_dump(self):
        profiler = _profiler()
        payload = export_snapshot(profiler=profiler)
        assert payload["schema"] == SNAPSHOT_SCHEMA
        assert payload["profile"] == profiler.dump()
        assert load_snapshot(payload) == payload

    def test_snapshot_without_profiler_has_empty_profile(self):
        assert export_snapshot()["profile"] == {}

    def test_version_1_snapshots_still_load(self):
        legacy = {"schema": "repro.observability.snapshot/1", "label": "old",
                  "metrics": {}, "calibration": {}, "regret": {},
                  "placements": {}, "ledger": {}}
        loaded = load_snapshot(legacy)
        assert loaded["label"] == "old"
        assert "profile" not in loaded
