"""Recovery-policy tests: faulted runs complete, degrade, and stay honest.

The contracts under test, in order of strength:

- ``faults=None`` and an *empty* plan are bit-identical to each other;
- a run whose policy never touches staging (static in-situ) is immune to
  staging faults — its results match the fault-free run exactly;
- a blackout degrades placement to in-situ and the run completes with
  the injection and the recovery decision both visible in the trace;
- retry exhaustion raises :class:`StagingError` — never a silent skip;
- same plan + same seed ⇒ identical results (determinism).
"""

import pytest

from repro.core.actions import Placement
from repro.errors import FaultError, StagingError, WorkflowError
from repro.faults import CoreLoss, CoreRestore, FaultInjector, FaultPlan, ObjectDrop
from repro.hpc.event import Simulator
from repro.hpc.network import Network
from repro.hpc.systems import titan
from repro.observability import Tracer
from repro.observability.events import (
    ADAPT_DECISION,
    FAULT_INJECTED,
    PLACEMENT_FALLBACK,
    STAGING_RETRY,
)
from repro.staging.area import RETRY_ATTEMPTS, StagingArea
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import CoupledWorkflow, run_workflow
from repro.workflow.report import result_to_json
from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace


def small_trace(steps=12, seed=0):
    return synthetic_amr_trace(SyntheticAMRConfig(
        steps=steps, nranks=64, base_cells=2e7, sim_cost_per_cell=1.0,
        growth=1.5, analysis_growth_exponent=1.0, seed=seed,
    ))


def config(mode=Mode.GLOBAL):
    return WorkflowConfig(mode=mode, sim_cores=1024, staging_cores=64,
                          spec=titan(), analysis_cost_per_cell=0.035)


def blackout_plan(horizon, cores=64):
    return FaultPlan([
        CoreLoss(at=0.35 * horizon, cores=cores),
        CoreRestore(at=0.65 * horizon, cores=cores),
    ])


class TestBitIdentity:
    def test_empty_plan_matches_no_faults_exactly(self):
        baseline = run_workflow(config(), small_trace())
        faulted = run_workflow(config(), small_trace(),
                               faults=FaultPlan())
        assert result_to_json(faulted) == result_to_json(baseline)

    def test_rejects_prewired_injector(self):
        injector = FaultInjector(FaultPlan())
        with pytest.raises(FaultError, match="needs a FaultPlan"):
            run_workflow(config(), small_trace(), faults=injector)


class TestWiring:
    def test_workflow_wires_its_injector(self):
        workflow = CoupledWorkflow(config(), small_trace(),
                                   faults=FaultPlan([ObjectDrop(step=1)]))
        injector = workflow.faults
        assert isinstance(injector, FaultInjector)
        assert injector.sim is workflow.sim
        assert injector.network is workflow.network
        assert injector.staging is workflow.staging

    def test_plan_needs_a_dedicated_simulator(self):
        with pytest.raises(WorkflowError, match="dedicated simulator"):
            CoupledWorkflow(config(), small_trace(), faults=FaultPlan(),
                            sim=Simulator())


class TestBlackoutDegradation:
    @pytest.fixture(scope="class")
    def blackout_run(self):
        baseline = run_workflow(config(), small_trace())
        tracer = Tracer()
        plan = blackout_plan(baseline.end_to_end_seconds)
        result = run_workflow(config(), small_trace(), tracer=tracer,
                              faults=plan)
        return baseline, result, tracer, plan

    def test_run_completes_with_every_analysis_done(self, blackout_run):
        _baseline, result, _tracer, _plan = blackout_run
        assert all(m.analysis_done_at is not None for m in result.steps)
        result.validate()

    def test_injection_and_recovery_visible_in_trace(self, blackout_run):
        _baseline, _result, tracer, _plan = blackout_run
        injected = tracer.events(kind=FAULT_INJECTED)
        kinds = [e.fields["fault"] for e in injected]
        assert "staging.core_loss" in kinds
        assert "staging.core_restore" in kinds
        degraded = [e for e in tracer.events(kind=ADAPT_DECISION)
                    if e.fields.get("degraded")]
        fallbacks = tracer.events(kind=PLACEMENT_FALLBACK)
        assert degraded or fallbacks, (
            "a blackout must leave a visible recovery decision in the trace"
        )

    def test_degraded_decisions_place_in_situ(self, blackout_run):
        _baseline, _result, tracer, _plan = blackout_run
        for event in tracer.events(kind=ADAPT_DECISION):
            if event.fields.get("degraded"):
                assert event.fields["placement"] == Placement.IN_SITU.value

    def test_steps_decided_during_blackout_ran_in_situ(self, blackout_run):
        _baseline, result, tracer, _plan = blackout_run
        by_step = {m.step: m for m in result.steps}
        dark_steps = {e.step for e in tracer.events(kind=ADAPT_DECISION)
                      if e.fields.get("degraded")}
        dark_steps |= {e.step for e in tracer.events(kind=PLACEMENT_FALLBACK)}
        assert dark_steps, "the blackout window must cover at least one step"
        for step in dark_steps:
            assert by_step[step].placement is Placement.IN_SITU

    def test_blackout_costs_time_but_not_correctness(self, blackout_run):
        baseline, result, _tracer, _plan = blackout_run
        assert result.end_to_end_seconds >= baseline.end_to_end_seconds
        # Nothing shipped while staging was dark.
        assert result.data_moved_bytes <= baseline.data_moved_bytes


class TestFaultFreeEquivalence:
    def test_static_insitu_immune_to_staging_faults(self):
        """The policy never touches staging, so staging faults are inert."""
        baseline = run_workflow(config(Mode.STATIC_INSITU), small_trace())
        plan = blackout_plan(baseline.end_to_end_seconds)
        faulted = run_workflow(config(Mode.STATIC_INSITU), small_trace(),
                               faults=plan)
        assert faulted.end_to_end_seconds == baseline.end_to_end_seconds
        assert faulted.data_moved_bytes == baseline.data_moved_bytes
        assert faulted.placement_counts() == baseline.placement_counts()

    def test_recovered_drops_preserve_logical_data_movement(self):
        """Dropped ingests are retried: same analyses, same logical bytes."""
        baseline = run_workflow(config(Mode.STATIC_INTRANSIT), small_trace())
        tracer = Tracer()
        plan = FaultPlan([ObjectDrop(step=1), ObjectDrop(step=3)])
        faulted = run_workflow(config(Mode.STATIC_INTRANSIT), small_trace(),
                               tracer=tracer, faults=plan)
        assert all(m.analysis_done_at is not None for m in faulted.steps)
        assert faulted.placement_counts() == baseline.placement_counts()
        assert faulted.data_moved_bytes == baseline.data_moved_bytes
        assert len(tracer.events(kind=STAGING_RETRY)) == 2


def dropping_area(drops):
    """A staging area whose fault plan drops ``drops`` ingests of step 0."""
    injector = FaultInjector(FaultPlan([ObjectDrop(step=0, count=drops)]))
    sim = Simulator()
    injector.attach_simulator(sim)
    net = Network(sim)
    net.add_link("sim", "staging", bandwidth=100.0, latency=0.0)
    area = StagingArea(sim, net, core_rate=10.0, total_cores=4,
                       faults=injector)
    injector.attach_network(net)
    injector.arm()
    return sim, area


class TestRetryExhaustion:
    def test_exhausted_retries_raise_staging_error(self):
        """As many drops as attempts: the run must fail loudly."""
        sim, area = dropping_area(RETRY_ATTEMPTS)
        area.submit(0, nbytes=100.0, work_units=10.0)
        with pytest.raises(StagingError):
            sim.run()

    def test_exhausted_retries_fail_the_workflow_run(self):
        plan = FaultPlan([ObjectDrop(step=1, count=RETRY_ATTEMPTS)])
        with pytest.raises(StagingError,
                           match=r"ingest\(step=1\): retries exhausted"):
            run_workflow(config(Mode.STATIC_INTRANSIT), small_trace(),
                         faults=plan)

    def test_drops_within_budget_recover(self):
        sim, area = dropping_area(RETRY_ATTEMPTS - 1)
        job = area.submit(0, nbytes=100.0, work_units=10.0)
        sim.run(job.done)
        assert len(area.completed) == 1


class TestDeterminism:
    def test_same_plan_same_results(self):
        baseline = run_workflow(config(), small_trace())
        horizon = baseline.end_to_end_seconds

        def one_run():
            tracer = Tracer()
            result = run_workflow(config(), small_trace(), tracer=tracer,
                                  faults=blackout_plan(horizon))
            return result, tracer

        a, tracer_a = one_run()
        b, tracer_b = one_run()
        assert result_to_json(a) == result_to_json(b)
        assert [e.as_dict() for e in tracer_a.events()] == \
               [e.as_dict() for e in tracer_b.events()]
