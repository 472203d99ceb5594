"""A finished run frees itself by reference counting.

Every test runs with the cyclic garbage collector disabled, so an object
that only a reference cycle keeps alive stays alive.  A weak reference
to each object must die as soon as the last strong reference goes.
"""

import gc
import weakref

import pytest

from repro.experiments.parallel import SWEEPS
from repro.hpc.event import Simulator
from repro.hpc.network import Network, Transfer
from repro.observability import MetricsRegistry, PredictionLedger, Tracer
from repro.service import WorkflowService
from repro.service.admission import ADMISSION_POLICIES
from repro.workflow.config import Mode
from repro.workflow.driver import CoupledWorkflow
from tests.service.test_tenancy import config, small_trace


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def run_refs(mode, **hooks):
    """Run one workflow; weak references to what it built."""
    wf = CoupledWorkflow(config(mode), small_trace(), **hooks)
    wf.run()
    jobs = list(wf.staging.completed)
    return [weakref.ref(obj) for obj in (
        wf, wf.sim, wf.network, wf.staging, wf.monitor, *jobs,
    )]


class TestWorkflowRelease:
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_finished_run_is_freed(self, mode):
        refs = run_refs(mode)
        assert [ref() for ref in refs] == [None] * len(refs)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_hooks_do_not_keep_the_run(self, mode):
        tracer, ledger, metrics = Tracer(), PredictionLedger(), MetricsRegistry()
        refs = run_refs(mode, tracer=tracer, ledger=ledger, metrics=metrics)
        assert [ref() for ref in refs] == [None] * len(refs)
        # The hooks outlive the run and still hold what it recorded.
        assert tracer.events() and metrics.names()
        assert tracer.clock() > 0.0


class TestServiceRelease:
    @pytest.mark.parametrize("policy", sorted(ADMISSION_POLICIES))
    def test_finished_service_is_freed(self, policy):
        tracer = Tracer()  # outlives the service; its clock must not pin it
        service = WorkflowService(
            sim_cores=2048, staging_cores=64, policy=policy,
            tracer=tracer, metrics=MetricsRegistry(),
        )
        for index in range(4):
            service.submit(
                f"t{index}", config(staging_cores=32 if index % 2 else 16),
                small_trace(seed=index), arrival=index * 0.5,
                user=f"u{index % 2}",
            )
        report = service.run()
        assert len(report.tenants) == 4
        refs = [weakref.ref(service), weakref.ref(service.sim)]
        for tenant in service.tenants:
            refs += [weakref.ref(tenant), weakref.ref(tenant.workflow),
                     weakref.ref(tenant.workflow.staging)]
        del tenant, service
        assert [ref() for ref in refs] == [None] * len(refs)
        assert report.tenants[0].result.steps  # the report stands alone


def test_fig_tenants_sweep_leaves_no_cycles():
    SWEEPS["fig_tenants"].result()  # warm the sweep's trace memo
    gc.collect()
    result = SWEEPS["fig_tenants"].result()
    assert result.rows
    assert gc.collect() == 0


class TestCompletionEvents:
    @pytest.mark.parametrize("nbytes", [0.0, 500.0])
    def test_transfer_event_fires_with_the_transfer(self, nbytes):
        sim = Simulator()
        net = Network(sim)
        net.add_link("a", "b", bandwidth=100.0, latency=0.5)
        done = net.transfer("a", "b", nbytes)
        transfer = sim.run(done)
        assert isinstance(transfer, Transfer)
        assert transfer.size == nbytes
        assert transfer.elapsed == pytest.approx(0.5 + nbytes / 100.0)
        # The transfer does not hold its event.
        ref = weakref.ref(done)
        del done
        assert ref() is None

    def test_driver_sees_every_job_complete(self):
        wf = CoupledWorkflow(config(Mode.STATIC_INTRANSIT), small_trace())
        result = wf.run()
        jobs = wf.staging.completed
        assert len(jobs) == wf.staging.jobs_submitted == len(result.steps)
        for job, step in zip(jobs, result.steps):
            assert job.done.triggered and job.done.value is None
            assert job.ingest_done.value.size == job.nbytes
            assert step.analysis_done_at == job.finished_at
        assert wf.monitor.intransit_observations == len(jobs)
        assert wf.monitor.transfer_observations == len(jobs)
