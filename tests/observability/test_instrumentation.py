"""End-to-end instrumentation: a traced workflow run emits a coherent,
causally ordered event stream without perturbing the run itself."""

import hashlib
import json

import pytest

from repro.faults import CoreLoss, FaultPlan, ObjectDrop
from repro.hpc.systems import titan
from repro.observability import (
    EVENT_KINDS,
    METRIC_NAMES,
    QUANTITIES,
    MetricsRegistry,
    PredictionLedger,
    Profiler,
    Tracer,
)
from repro.observability.events import (
    ADAPT_DECISION,
    MONITOR_SAMPLE,
    STAGING_INGEST,
    STAGING_JOB_END,
    STAGING_JOB_START,
    STAGING_SUBMIT,
    STEP_END,
    STEP_START,
)
from repro.observability.observer import NULL_TRACER
from repro.service import WorkflowService
from repro.workflow import CoupledWorkflow, Mode, WorkflowConfig, run_workflow
from repro.workflow.report import result_to_json
from repro.workflow.triggers import EntropyPercentile
from repro.workload import SyntheticAMRConfig, synthetic_amr_trace
from tests.observability.jsonl import to_jsonl


def _trace(steps=10):
    return synthetic_amr_trace(
        SyntheticAMRConfig(steps=steps, nranks=64, base_cells=2e7,
                           sim_cost_per_cell=1.0, growth=1.5, seed=0)
    )


def _config(mode=Mode.GLOBAL):
    return WorkflowConfig(mode=mode, sim_cores=1024, staging_cores=64,
                          spec=titan(), analysis_cost_per_cell=0.035)


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    metrics = MetricsRegistry()
    ledger = PredictionLedger()
    result = run_workflow(_config(), _trace(), tracer=tracer,
                          metrics=metrics, ledger=ledger)
    return tracer, metrics, ledger, result


class TestEventStream:
    def test_every_step_has_boundaries(self, traced_run):
        tracer, _metrics, _ledger, result = traced_run
        assert len(tracer.events(kind=STEP_START)) == len(result.steps)
        assert len(tracer.events(kind=STEP_END)) == len(result.steps)

    def test_one_decision_per_sampled_step_with_inputs(self, traced_run):
        tracer, _metrics, _ledger, result = traced_run
        decisions = tracer.events(kind=ADAPT_DECISION)
        # monitor_interval defaults to 1: every step is sampled.
        assert len(decisions) == len(result.steps)
        for event in decisions:
            for key in ("est_insitu_time", "est_intransit_time",
                        "est_intransit_remaining", "factor", "placement",
                        "staging_cores"):
                assert key in event.fields

    def test_monitor_sample_precedes_its_decision(self, traced_run):
        tracer, _metrics, _ledger, _result = traced_run
        for decision in tracer.events(kind=ADAPT_DECISION):
            samples = tracer.events(kind=MONITOR_SAMPLE, step=decision.step)
            assert samples and samples[0].seq < decision.seq

    def test_staging_lifecycle_is_causally_ordered(self, traced_run):
        tracer, _metrics, _ledger, _result = traced_run
        submits = {e.fields["job_id"]: e for e in tracer.events(kind=STAGING_SUBMIT)}
        assert submits, "expected at least one in-transit placement"
        for kind in (STAGING_INGEST, STAGING_JOB_START, STAGING_JOB_END):
            for event in tracer.events(kind=kind):
                submit = submits[event.fields["job_id"]]
                assert submit.seq < event.seq
                assert submit.ts <= event.ts
        for end in tracer.events(kind=STAGING_JOB_END):
            starts = [e for e in tracer.events(kind=STAGING_JOB_START)
                      if e.fields["job_id"] == end.fields["job_id"]]
            assert starts and starts[0].ts <= end.ts

    def test_all_emitted_kinds_are_registered(self, traced_run):
        tracer, _metrics, _ledger, _result = traced_run
        assert {e.kind for e in tracer.events()} <= set(EVENT_KINDS)

    def test_all_published_metrics_are_registered(self, traced_run):
        _tracer, metrics, _ledger, _result = traced_run
        assert set(metrics.names()) <= set(METRIC_NAMES)

    def test_timestamps_are_monotone_in_seq(self, traced_run):
        tracer, _metrics, _ledger, _result = traced_run
        events = tracer.events()
        assert all(a.ts <= b.ts for a, b in zip(events, events[1:]))

    def test_jsonl_roundtrip_of_a_real_run(self, traced_run):
        tracer, _metrics, _ledger, _result = traced_run
        lines = to_jsonl(tracer).splitlines()
        assert [json.loads(line) for line in lines] == [
            e.as_dict() for e in tracer.events()
        ]


# Each case returns its result and the kernel's counters.


def _workflow(config, **kwargs):
    workflow = CoupledWorkflow(config, _trace(), **kwargs)
    return workflow.run(), workflow.sim.kernel.counters.as_dict()


def _global(**hooks):
    return _workflow(_config(), **hooks)


def _faulted(**hooks):
    # One dropped ingest (retried with backoff) plus a mid-run loss of
    # three quarters of the staging pool.
    plan = FaultPlan([ObjectDrop(step=2), CoreLoss(at=2.0, cores=48)])
    return _workflow(_config(Mode.STATIC_INTRANSIT), faults=plan, **hooks)


def _triggered(**hooks):
    return _workflow(_config(), trigger=EntropyPercentile(), **hooks)


def _service(tracer=None, metrics=None, ledger=None, profiler=None):
    # One tenant granted the whole pool: the service's shared-infrastructure
    # path with nothing to negotiate.
    config = _config()
    service = WorkflowService(sim_cores=config.sim_cores,
                              staging_cores=config.staging_cores,
                              metrics=metrics, profiler=profiler)
    tenant = service.submit("solo", config, _trace(), tracer=tracer,
                            metrics=metrics, ledger=ledger)
    service.run()
    return tenant.result, service.sim.kernel.counters.as_dict()


#: SHA-256 of the observed run's trace JSONL, captured before the hooks
#: were bundled into one observer; any change to what a run emits, or
#: in which order, moves them.
_PINNED_TRACE_SHA256 = {
    "faulted": "0df29bc9bce98da62bb7447580e927bbfbaa0372b4eb20ca2e218b1fe636d8ff",
    "triggered": "133344bbc3528f204265c5a738fbdf6f34c4b3e2aba1106f1aaa48b661fa86cf",
}


_RUNS = {
    "global": _global,
    "faulted": _faulted,
    "triggered": _triggered,
    "service": _service,
}


class TestZeroOverheadPath:
    @pytest.mark.parametrize("case", list(_RUNS))
    def test_uninstrumented_run_is_bitwise_identical(self, case):
        run = _RUNS[case]
        tracer = Tracer()
        observed, _ = run(tracer=tracer, metrics=MetricsRegistry(),
                          ledger=PredictionLedger(), profiler=Profiler())
        plain, _ = run()
        assert plain == observed
        assert result_to_json(plain) == result_to_json(observed)
        assert len(tracer) > 0
        pinned = _PINNED_TRACE_SHA256.get(case)
        if pinned is not None:
            digest = hashlib.sha256(to_jsonl(tracer).encode()).hexdigest()
            assert digest == pinned

    @pytest.mark.parametrize("case", list(_RUNS))
    def test_tracer_adds_one_control_event_per_staging_job(self, case):
        # The tracer's ingest callback (StagingArea.submit) is the only
        # kernel work tracing adds; every other event kind is untouched.
        run = _RUNS[case]
        tracer = Tracer()
        _, traced = run(tracer=tracer)
        _, plain = run()
        jobs = len(tracer.events(kind=STAGING_SUBMIT))
        assert jobs > 0
        for tally in ("scheduled", "processed"):
            extra = {kind: traced[tally][kind] - plain[tally][kind]
                     for kind in plain[tally]}
            assert extra == {kind: jobs if kind == "control" else 0
                             for kind in plain[tally]}

    def test_disabled_tracer_records_nothing_and_changes_nothing(self, traced_run):
        # "Off" is the null tracer: passed explicitly, it keeps no state.
        _tracer, _metrics, _ledger, instrumented = traced_run
        result = run_workflow(_config(), _trace(), tracer=NULL_TRACER)
        assert NULL_TRACER.enabled is False
        assert not hasattr(NULL_TRACER, "__dict__")
        assert result == instrumented

    def test_ledger_only_run_is_bitwise_identical(self, traced_run):
        _tracer, _metrics, _ledger, instrumented = traced_run
        result = run_workflow(_config(), _trace(), ledger=PredictionLedger())
        assert result == instrumented


class TestLedgerStream:
    def test_all_quantities_are_registered(self, traced_run):
        _tracer, _metrics, ledger, _result = traced_run
        assert ledger.quantities_seen() <= set(QUANTITIES)

    def test_every_dispatched_step_predicts_and_resolves(self, traced_run):
        _tracer, _metrics, ledger, result = traced_run
        # monitor_interval=1: every step yields fresh decisions, so every
        # prediction (except the final step's next-sim-time forecast)
        # meets its realization.
        assert len(ledger) > 0
        pending = [r.quantity for r in ledger.records() if not r.resolved]
        assert pending in ([], ["sim_step_time"])
        assert ledger.unmatched == 0

    def test_placements_scored_for_every_singular_placement(self, traced_run):
        _tracer, _metrics, ledger, result = traced_run
        singular = [m for m in result.steps
                    if m.placement.value in ("in_situ", "in_transit")]
        assert len(ledger.placements) == len(singular)
        assert all(p.scored for p in ledger.placements)

    def test_placement_costs_are_finite_and_nonnegative(self, traced_run):
        _tracer, _metrics, ledger, _result = traced_run
        for p in ledger.placements:
            assert p.chosen_cost >= 0
            assert p.alt_cost >= 0
            assert p.regret >= 0

    def test_prediction_timestamps_precede_realizations(self, traced_run):
        _tracer, _metrics, ledger, _result = traced_run
        for record in ledger.records():
            if record.resolved:
                assert record.predicted_at <= record.realized_at

    def test_intransit_predictions_match_job_count(self, traced_run):
        tracer, _metrics, ledger, _result = traced_run
        submits = tracer.events(kind=STAGING_SUBMIT)
        assert len(ledger.records("intransit_time")) == len(submits)
        assert len(ledger.records("transfer_time")) == len(submits)


class TestMetricsConsistency:
    def test_counters_match_result_aggregates(self, traced_run):
        tracer, metrics, _ledger, result = traced_run
        values = metrics.as_dict()
        assert values["workflow.steps"] == len(result.steps)
        assert values["engine.decisions"] == len(
            tracer.events(kind=ADAPT_DECISION)
        )
        assert values["staging.bytes_ingested"] == pytest.approx(
            result.data_moved_bytes
        )
        assert values["staging.jobs_completed"] == len(
            tracer.events(kind=STAGING_JOB_END)
        )
