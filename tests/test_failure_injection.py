"""Failure-injection tests: the system must fail loudly and recover cleanly.

The kernel-level cases below inject faults by hand (interrupts, failed
events, crashing processes); the classes at the bottom drive the same
contracts through :mod:`repro.faults` — the declarative fault-plan
subsystem — and assert its recovery policies: bounded retry, graceful
in-situ degradation, and loud failure when recovery is impossible.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ResourceError, SimulationError, StagingError, WorkflowError
from repro.faults import CoreLoss, CoreRestore, FaultInjector, FaultPlan, ObjectDrop
from repro.hpc.event import Interrupt, Simulator
from repro.hpc.network import Network
from repro.hpc.resources import Store
from repro.hpc.systems import titan
from repro.staging.area import RETRY_ATTEMPTS, StagingArea


def faulted_area(plan, total_cores=4):
    """A minimal simulator/network/staging trio wired to ``plan``."""
    injector = FaultInjector(plan)
    sim = Simulator()
    injector.attach_simulator(sim)
    net = Network(sim)
    net.add_link("sim", "staging", bandwidth=100.0, latency=0.0)
    area = StagingArea(sim, net, core_rate=10.0, total_cores=total_cores,
                       faults=injector)
    injector.attach_network(net)
    injector.arm()
    return sim, area


class TestInterruptedWaiters:
    def test_interrupted_store_getter_does_not_eat_item(self):
        """A getter interrupted while queued must not consume the next item;
        the getter queued behind it receives it."""
        sim = Simulator()
        store = Store(sim)
        served = []

        def doomed(sim):
            try:
                yield store.get()
            except Interrupt:
                return "interrupted"

        def patient(sim):
            item = yield store.get()
            served.append((sim.now, item))

        def producer(sim):
            yield sim.timeout(5.0)
            store.put("payload")

        victim = sim.process(doomed(sim))
        sim.process(patient(sim))
        sim.process(producer(sim))

        def assassin(sim):
            yield sim.timeout(1.0)
            victim.interrupt()

        sim.process(assassin(sim))
        sim.run()
        assert victim.value == "interrupted"
        assert served == [(5.0, "payload")]
        assert len(store) == 0

    def test_interrupting_transfer_waiter_leaves_network_consistent(self):
        sim = Simulator()
        net = Network(sim)
        net.add_link("a", "b", bandwidth=10.0)

        def waiter(sim):
            try:
                yield net.transfer("a", "b", 100.0)
            except Interrupt:
                return "gone"

        victim = sim.process(waiter(sim))

        def assassin(sim):
            yield sim.timeout(1.0)
            victim.interrupt()

        sim.process(assassin(sim))
        # Another transfer afterwards still completes normally.
        def follow_up(sim):
            yield sim.timeout(2.0)
            done = net.transfer("a", "b", 50.0)
            yield done
            return sim.now

        follower = sim.process(follow_up(sim))
        sim.run()
        assert victim.value == "gone"
        assert np.isfinite(follower.value)


class TestStagingFailures:
    def test_worker_survives_zero_work_jobs(self):
        sim = Simulator()
        net = Network(sim)
        net.add_link("sim", "staging", bandwidth=100.0)
        area = StagingArea(sim, net, core_rate=10.0, total_cores=4)
        jobs = [area.submit(i, 0.0, 0.0) for i in range(3)]
        sim.run(sim.all_of([j.done for j in jobs]))
        assert len(area.completed) == 3

    def test_negative_job_rejected_before_state_changes(self):
        sim = Simulator()
        net = Network(sim)
        net.add_link("sim", "staging", bandwidth=100.0)
        area = StagingArea(sim, net, core_rate=10.0, total_cores=4,
                           memory_bytes=1000.0)
        with pytest.raises(StagingError):
            area.submit(0, 10.0, -1.0)
        # The failed submit must not leak memory accounting.
        assert area.memory_used == 0.0
        assert area.bytes_ingested == 0.0

    def test_oversized_step_raises_workflow_error(self):
        """A step that cannot fit staging memory even when empty must fail
        loudly in static in-transit mode, not deadlock."""
        from repro.hpc.systems import titan
        from repro.workflow.config import Mode, WorkflowConfig
        from repro.workflow.driver import run_workflow
        from repro.workload.trace import StepRecord, WorkloadTrace

        trace = WorkloadTrace(
            "huge", 3, 4, 8.0,
            [StepRecord(1, 1e6, 10**7, 1e18, 1e9, np.full(4, 2.5e8))],
        )
        config = WorkflowConfig(mode=Mode.STATIC_INTRANSIT, sim_cores=64,
                                staging_cores=4, spec=titan())
        with pytest.raises(WorkflowError, match="exceed staging memory"):
            run_workflow(config, trace)

    def test_oversized_hybrid_remainder_raises_workflow_error(self):
        """The shipped half of a hybrid step that cannot fit staging
        memory even when empty fails the same way."""
        from repro.core.actions import Placement
        from repro.core.engine import AdaptationDecision
        from repro.workflow.config import Mode, WorkflowConfig
        from repro.workflow.driver import CoupledWorkflow
        from repro.workload.trace import StepRecord, WorkloadTrace

        trace = WorkloadTrace(
            "huge", 3, 4, 8.0,
            [StepRecord(1, 1e6, 10**7, 1e18, 1e9, np.full(4, 2.5e8))],
        )
        config = WorkflowConfig(mode=Mode.ADAPTIVE_MIDDLEWARE, sim_cores=64,
                                staging_cores=4, spec=titan())
        workflow = CoupledWorkflow(config, trace)
        # No built-in policy splits a step staging cannot hold, so the
        # decision is forced: half in situ, half (5e17 B) shipped.
        workflow._decide = lambda step, *args, **kwargs: AdaptationDecision(
            step=step, placement=Placement.HYBRID, insitu_fraction=0.5,
        )
        with pytest.raises(WorkflowError,
                           match=r"step 1: 500000000000000000 B exceed "
                                 "staging memory"):
            workflow.run()


class TestKernelFaultBarriers:
    def test_failed_event_poisons_all_waiters(self):
        sim = Simulator()
        evt = sim.event()
        outcomes = []

        def waiter(sim, tag):
            try:
                yield evt
            except RuntimeError:
                outcomes.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(waiter(sim, tag))

        def failer(sim):
            yield sim.timeout(1.0)
            evt.fail(RuntimeError("poisoned"))

        sim.process(failer(sim))
        sim.run()
        assert sorted(outcomes) == ["a", "b", "c"]

    def test_crash_in_one_process_aborts_run_deterministically(self):
        sim = Simulator()

        def healthy(sim):
            for _ in range(100):
                yield sim.timeout(1.0)

        def crasher(sim):
            yield sim.timeout(5.0)
            raise ValueError("injected fault")

        sim.process(healthy(sim))
        sim.process(crasher(sim))
        with pytest.raises(ValueError, match="injected fault"):
            sim.run()
        assert sim.now == 5.0  # aborted exactly at the fault

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(5.0)

        sim.process(proc(sim))
        sim.run()
        with pytest.raises(SimulationError):
            sim._schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("field", [
        "cores_per_node", "memory_per_node", "core_rate",
        "node_injection_bw", "pfs_write_bandwidth", "pfs_read_bandwidth",
    ])
    @pytest.mark.parametrize("value", [0, -1])
    def test_system_spec_rejects_nonpositive_shape(self, field, value):
        with pytest.raises(ResourceError, match=field):
            dataclasses.replace(titan(), **{field: value})


class TestPlannedCoreLoss:
    """Core-loss recovery driven through a declarative FaultPlan."""

    def test_interrupted_job_reruns_from_staged_copy(self):
        """A job aborted by core loss finishes after the restore without
        re-ingesting — the staged copy survives the failure."""
        plan = FaultPlan([
            CoreLoss(at=1.5, cores=4),   # mid-service: ingest ends at 1.0
            CoreRestore(at=5.0, cores=4),
        ])
        sim, area = faulted_area(plan)
        job = area.submit(0, nbytes=100.0, work_units=40.0)  # 1s service
        sim.run(job.done)
        assert len(area.completed) == 1
        assert job.finished_at > 5.0  # parked until the restore
        assert area.bytes_ingested == 100.0  # ingested exactly once

    def test_submit_to_dead_staging_raises(self):
        plan = FaultPlan([CoreLoss(at=1.0, cores=4)])
        sim, area = faulted_area(plan)
        sim.run()
        assert not area.reachable
        with pytest.raises(StagingError, match="unreachable"):
            area.submit(0, nbytes=10.0, work_units=1.0)

    def test_permanent_blackout_with_queued_work_fails_loudly(self):
        """No restore ever comes: the run must end with an error, not
        complete silently with analysis missing."""
        plan = FaultPlan([CoreLoss(at=0.5, cores=4)])
        sim, area = faulted_area(plan)
        job = area.submit(0, nbytes=100.0, work_units=40.0)
        with pytest.raises(SimulationError, match="drained"):
            sim.run(job.done)


class TestPlannedRetry:
    """In-flight corruption recovery: bounded retry, loud exhaustion."""

    def test_retry_exhaustion_raises_staging_error(self):
        plan = FaultPlan([ObjectDrop(step=0, count=RETRY_ATTEMPTS)])
        sim, area = faulted_area(plan)
        area.submit(0, nbytes=100.0, work_units=10.0)
        with pytest.raises(StagingError):
            sim.run()

    def test_backoff_delays_are_exponential(self):
        plan = FaultPlan([ObjectDrop(step=0, count=2)])
        sim, area = faulted_area(plan)
        job = area.submit(0, nbytes=100.0, work_units=10.0)
        sim.run(job.done)
        assert len(area.completed) == 1
        # Two 1 s dropped attempts, backoffs of 0.5 s and 1.0 s, then
        # the accepted 1 s attempt.
        assert job.started_at == 1.0 + 0.5 + 1.0 + 1.0 + 1.0


class TestPlannedDegradation:
    """A mid-run blackout degrades the workflow to in-situ and completes."""

    def test_blackout_workflow_completes_in_situ(self):
        from repro.core.actions import Placement
        from repro.hpc.systems import titan
        from repro.workflow.config import Mode, WorkflowConfig
        from repro.workflow.driver import run_workflow
        from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace

        def trace():
            return synthetic_amr_trace(SyntheticAMRConfig(
                steps=8, nranks=64, base_cells=2e7, sim_cost_per_cell=1.0,
                growth=1.5, analysis_growth_exponent=1.0, seed=0))

        config = WorkflowConfig(mode=Mode.STATIC_INTRANSIT, sim_cores=1024,
                                staging_cores=64, spec=titan(),
                                analysis_cost_per_cell=0.035)
        baseline = run_workflow(config, trace())
        plan = FaultPlan([
            CoreLoss(at=0.3 * baseline.end_to_end_seconds, cores=64),
            CoreRestore(at=0.7 * baseline.end_to_end_seconds, cores=64),
        ])
        result = run_workflow(config, trace(), faults=plan)
        counts = result.placement_counts()
        # Static in-transit wants everything staged; the fallback forced
        # the dark-window steps in-situ instead of wedging the run.
        assert counts[Placement.IN_SITU] > 0
        assert counts[Placement.IN_TRANSIT] > 0
        assert all(m.analysis_done_at is not None for m in result.steps)
