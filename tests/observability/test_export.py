"""Unit tests for the run record and its Prometheus exporter."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    RECORD_SCHEMA,
    MetricsRegistry,
    PredictionLedger,
    Profiler,
    diff_records,
    load_record,
    prometheus_text,
    render_diff,
)
from repro.workflow import WorkflowResult, run_record


def _record(label="", **hooks):
    """A run record of an empty result with the given hooks."""
    return run_record(WorkflowResult(mode="global"), label=label, **hooks)


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
        text = prometheus_text(_record(metrics=_registry()))
        assert "# TYPE repro_workflow_steps_total counter" in text
        assert "repro_workflow_steps_total 10" in text
        assert "# TYPE repro_staging_active_cores gauge" in text
        assert "repro_staging_active_cores 32" in text
        # EmaTimer: gauge + _count/_sum counters.
        assert "# TYPE repro_staging_service_seconds gauge" in text
        assert "repro_staging_service_seconds_count 2" in text
        assert "repro_staging_service_seconds_sum 6" in text

    def test_ledger_series_carry_quantity_labels(self):
        text = prometheus_text(_record(ledger=_ledger()))
        assert 'repro_ledger_predictions_total{quantity="insitu_time"} 2' in text
        assert 'repro_ledger_resolved_total{quantity="insitu_time"} 1' in text
        assert 'repro_calibration_mape_pct{quantity="insitu_time"}' in text
        assert "repro_placement_decisions_scored_total 1" in text
        assert "repro_placement_decision_flips_total 1" in text
        assert "repro_ledger_unmatched_total 0" in text

    def test_help_and_type_emitted_once_per_metric(self):
        text = prometheus_text(_record(metrics=_registry(), ledger=_ledger()))
        for line in (l for l in text.splitlines() if l.startswith("# TYPE")):
            assert text.count(line) == 1

    def test_empty_inputs_render_empty(self):
        assert prometheus_text(_record()) == ""


class TestSnapshot:
    """The run record: one versioned JSON snapshot of a run."""

    def test_payload_shape_and_write(self, tmp_path):
        path = tmp_path / "run.json"
        payload = _record(metrics=_registry(), ledger=_ledger(),
                          label="baseline")
        assert payload["schema"] == RECORD_SCHEMA
        assert payload["label"] == "baseline"
        assert payload["result"]["mode"] == "global"
        assert payload["metrics"]["workflow.steps"]["value"] == 10
        assert payload["metrics"]["staging.service_seconds"]["count"] == 2
        assert payload["calibration"]["insitu_time"]["count"] == 1
        assert payload["regret"]["scored"] == 1
        assert payload["placements"] == {"0": "in_situ"}
        path.write_text(json.dumps(payload))
        assert load_record(path) == payload

    def test_load_reads_a_written_record(self, tmp_path):
        payload = _record(ledger=_ledger())
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload, indent=2))
        assert load_record(path) == payload
        assert load_record(str(path)) == payload

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ObservabilityError, match="schema"):
            load_record(path)
        path.write_text("{not json")
        with pytest.raises(ObservabilityError, match="not JSON"):
            load_record(path)

    def test_parent_snapshot_format_is_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "schema": "repro.observability.snapshot/2", "label": "old",
            "profile": {}, "metrics": {}, "calibration": {}, "regret": {},
            "placements": {}, "ledger": {},
        }))
        with pytest.raises(ObservabilityError, match=RECORD_SCHEMA):
            load_record(path)

    def test_ledger_roundtrips_through_the_snapshot(self, tmp_path):
        ledger = _ledger()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(_record(ledger=ledger)))
        assert load_record(path)["ledger"] == ledger.as_dict()

    def test_sections_are_empty_without_their_hooks(self):
        payload = _record()
        for section in ("events", "metrics", "spans", "counters",
                        "calibration", "regret", "placements", "ledger"):
            assert not payload[section], section


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

        a = _record(ledger=good, label="good")
        b = _record(ledger=bad, label="bad")
        diff = diff_records(a, b)
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
        a = _record(ledger=_ledger(), label="a")
        b = _record(label="b")
        diff = diff_records(a, b)
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
        text = prometheus_text(_record(profiler=_profiler()))
        assert "# TYPE repro_span_calls_total counter" in text
        assert 'repro_span_calls_total{span="workflow.run"} 1' in text
        assert 'repro_span_seconds_total{span="workflow.run/sim.run"}' in text
        assert 'repro_span_self_seconds_total{span="workflow.run"}' in text

    def test_snapshot_carries_the_span_dump(self):
        profiler = _profiler()
        payload = _record(profiler=profiler)
        assert payload["schema"] == RECORD_SCHEMA
        assert payload["spans"] == profiler.dump()

    def test_snapshot_without_profiler_has_empty_profile(self):
        assert _record()["spans"] == {}
