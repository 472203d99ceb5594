"""Integration tests for :class:`WorkflowService` on the shared machine.

The load-bearing guarantee is single-tenant equivalence: a service with
one tenant whose requests equal the pool must be *bit-identical* -- same
result JSON, same tenant trace events -- to the direct
:meth:`CoupledWorkflow.run` path.  The multi-tenant tests then check the
contention behaviour the service exists to expose: queue waits, squeezed
grants, starvation, and grant negotiation against the shared pool.
"""

import pytest

from repro.errors import ServiceError
from repro.hpc.kernel import TENANT
from repro.hpc.systems import titan
from repro.observability.events import (
    TENANT_ADMITTED,
    TENANT_COMPLETED,
    TENANT_GRANT,
    TENANT_QUEUED,
    TENANT_REJECTED,
    TENANT_STARVED,
    TENANT_SUBMITTED,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.service import WorkflowService
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import CoupledWorkflow
from repro.workflow.report import result_to_json
from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace


def tenant(report, name):
    """The one tenant report named ``name``."""
    (found,) = [t for t in report.tenants if t.name == name]
    return found


def small_trace(steps=8, seed=0, nranks=64):
    cfg = SyntheticAMRConfig(
        steps=steps,
        nranks=nranks,
        base_cells=2e7,
        sim_cost_per_cell=1.0,
        growth=1.5,
        analysis_growth_exponent=1.0,
        seed=seed,
    )
    return synthetic_amr_trace(cfg)


def config(mode=Mode.GLOBAL, sim_cores=1024, staging_cores=64, **kw):
    return WorkflowConfig(
        mode=mode, sim_cores=sim_cores, staging_cores=staging_cores,
        spec=titan(), analysis_cost_per_cell=0.035, **kw
    )


class TestSingleTenantEquivalence:
    @pytest.mark.parametrize(
        "mode", [Mode.GLOBAL, Mode.ADAPTIVE_RESOURCE, Mode.STATIC_INTRANSIT]
    )
    def test_bit_identical_to_direct_path(self, mode):
        # Same result JSON AND same tenant-visible trace stream: the
        # service with a full-pool tenant is the direct path, byte for
        # byte.
        cfg = config(mode)
        direct_tracer = Tracer()
        direct = CoupledWorkflow(
            cfg, small_trace(steps=10), tracer=direct_tracer
        ).run()

        service_tracer = Tracer()
        service = WorkflowService(
            spec=cfg.spec,
            sim_cores=cfg.sim_cores,
            staging_cores=cfg.staging_cores,
        )
        service.submit(
            "solo", cfg, small_trace(steps=10), tracer=service_tracer
        )
        report = service.run()

        served = tenant(report, "solo")
        assert result_to_json(served.result) == result_to_json(direct)
        assert [e.as_dict() for e in service_tracer.events()] == [
            e.as_dict() for e in direct_tracer.events()
        ]
        assert served.queue_wait == 0.0
        assert served.base_grant == cfg.staging_cores
        assert served.final_grant == cfg.staging_cores
        assert report.makespan == direct.end_to_end_seconds
        assert report.fairness_index == 1.0

    def test_scheduler_drains_to_empty(self):
        service = WorkflowService(sim_cores=1024, staging_cores=64)
        service.submit("solo", config(), small_trace())
        service.run()
        assert service.scheduler.compute_committed == 0
        assert service.scheduler.staging_committed == 0


class TestContention:
    def test_fifo_queueing_degrades_second_tenant(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        service = WorkflowService(
            sim_cores=1024, staging_cores=64,
            tracer=tracer, metrics=metrics,
        )
        # Both want the whole machine: b must wait for a.
        service.submit("a", config(), small_trace(seed=1))
        service.submit("b", config(), small_trace(seed=2), arrival=1.0)
        report = service.run()

        a, b = tenant(report, "a"), tenant(report, "b")
        assert a.queue_wait == 0.0
        assert b.queue_wait > 0.0
        assert b.admitted_at == pytest.approx(a.completed_at)
        assert b.time_to_solution > b.result.end_to_end_seconds
        assert report.makespan == pytest.approx(b.completed_at)
        # Shared-pool fairness numbers exist and expose the imbalance.
        assert 0.0 < report.fairness_index < 1.0

        kinds = {e.kind for e in tracer.events()}
        assert {
            TENANT_SUBMITTED, TENANT_QUEUED, TENANT_ADMITTED, TENANT_COMPLETED
        } <= kinds
        assert metrics.counter("service.tenants_admitted").value == 2
        assert metrics.counter("service.tenants_completed").value == 2
        assert metrics.gauge("service.staging_committed_cores").value == 0
        assert metrics.timer("service.queue_wait_seconds").count == 2

    def test_squeezed_grant_admission(self):
        # Pool of 16 staging cores, two 12-core requests: the second is
        # admitted squeezed onto the 4 uncommitted cores instead of
        # queueing behind the first.
        service = WorkflowService(sim_cores=1024, staging_cores=16)
        service.submit(
            "first", config(sim_cores=256, staging_cores=12),
            small_trace(seed=1),
        )
        service.submit(
            "second", config(sim_cores=256, staging_cores=12),
            small_trace(seed=2),
        )
        report = service.run()
        assert tenant(report, "first").base_grant == 12
        assert tenant(report, "second").base_grant == 4
        assert tenant(report, "second").queue_wait == 0.0
        assert tenant(report, "second").staging_share == pytest.approx(4 / 16)

    def test_compute_partition_is_physical(self):
        # Staging has room for both, but the two 512-core tenants do
        # not fit the 512-core partition together: b waits for a.
        service = WorkflowService(sim_cores=512, staging_cores=64)
        service.submit(
            "a", config(sim_cores=512, staging_cores=32), small_trace(seed=1)
        )
        service.submit(
            "b", config(sim_cores=512, staging_cores=32), small_trace(seed=2)
        )
        report = service.run()
        a, b = tenant(report, "a"), tenant(report, "b")
        assert a.queue_wait == 0.0
        assert b.admitted_at == pytest.approx(a.completed_at)
        assert service.scheduler.compute_total == 512

    def test_starvation_detector_flags_long_wait(self):
        tracer = Tracer()
        service = WorkflowService(
            sim_cores=1024, staging_cores=64,
            starvation_wait=2.0, tracer=tracer,
        )
        service.submit("a", config(), small_trace(seed=1))
        service.submit("b", config(), small_trace(seed=2), arrival=1.0)
        report = service.run()

        assert report.starvations == 1
        assert tenant(report, "b").starved
        assert not tenant(report, "a").starved
        starved = tracer.events(kind=TENANT_STARVED)
        assert len(starved) == 1
        assert starved[0].fields["tenant"] == "b"
        # The check fires at exactly enqueue + threshold (the solo run
        # takes ~4.8 simulated seconds, so b is still queued at t=3).
        assert starved[0].ts == pytest.approx(1.0 + 2.0)

    def test_bounded_queue_rejects_overflow(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        service = WorkflowService(
            sim_cores=1024, staging_cores=64, max_queue=1,
            tracer=tracer, metrics=metrics,
        )
        # a admitted immediately (queue drains), b occupies the single
        # queue slot, c is turned away.
        service.submit("a", config(), small_trace(seed=1))
        service.submit("b", config(), small_trace(seed=2), arrival=1.0)
        service.submit("c", config(), small_trace(seed=3), arrival=2.0)
        report = service.run()

        assert report.rejected == ("c",)
        assert {t.name for t in report.tenants} == {"a", "b"}
        rejected = tracer.events(kind=TENANT_REJECTED)
        assert len(rejected) == 1 and rejected[0].fields["tenant"] == "c"
        assert metrics.counter("service.tenants_rejected").value == 1


class TestGrantNegotiation:
    def test_expansion_borrows_uncommitted_pool_cores(self):
        # A lone tenant asking for 8 of a 32-core pool: Eq. 9-10 sizes
        # against the negotiable headroom (grant + uncommitted), so the
        # overloaded staging partition grows past its base grant.
        tracer = Tracer()
        metrics = MetricsRegistry()
        service = WorkflowService(
            sim_cores=1024, staging_cores=32,
            tracer=tracer, metrics=metrics,
        )
        service.submit(
            "greedy", config(staging_cores=8), small_trace(steps=16)
        )
        report = service.run()

        greedy = tenant(report, "greedy")
        assert greedy.base_grant == 8
        assert greedy.final_grant > greedy.base_grant
        assert metrics.counter("service.grant_expansions").value > 0
        grants = tracer.events(kind=TENANT_GRANT)
        assert grants and any(e.fields["delta"] > 0 for e in grants)
        # Everything borrowed is returned at completion.
        assert service.scheduler.staging_committed == 0

    def test_neighbour_caps_expansion(self):
        # With a neighbour holding 24 of 32 cores, the same tenant can
        # only ever borrow the 8 uncommitted cores while both run.
        service = WorkflowService(sim_cores=1024, staging_cores=32)
        service.submit(
            "greedy", config(sim_cores=512, staging_cores=8),
            small_trace(steps=16),
        )
        service.submit(
            "neighbour", config(sim_cores=512, staging_cores=16),
            small_trace(seed=3),
        )
        report = service.run()
        greedy = tenant(report, "greedy")
        assert greedy.final_grant <= 32 - 16 + 8 or (
            # Unless the neighbour finished first and freed its grant.
            tenant(report, "neighbour").completed_at <= greedy.completed_at
        )
        assert service.scheduler.staging_committed == 0


class TestPolicies:
    def _three_tenant_report(self, policy):
        # Staging pool of 16: a holds 15, leaving 1 uncommitted.  The
        # wide tenant w (8, minimum grant 2) cannot fit, the narrow
        # tenant n (4, minimum grant 1) can.  fifo blocks n behind w;
        # smallest backfills.
        service = WorkflowService(
            sim_cores=1024, staging_cores=16, policy=policy,
        )
        service.submit(
            "a", config(sim_cores=256, staging_cores=15),
            small_trace(seed=1),
        )
        service.submit(
            "w", config(sim_cores=256, staging_cores=8),
            small_trace(seed=2), arrival=1.0,
        )
        service.submit(
            "n", config(sim_cores=256, staging_cores=4),
            small_trace(seed=3), arrival=2.0,
        )
        return service.run()

    def test_fifo_head_of_line_blocks_narrow_tenant(self):
        report = self._three_tenant_report("fifo")
        assert tenant(report, "w").queue_wait > 0.0
        assert tenant(report, "n").queue_wait > 0.0
        # fifo admits in arrival order once capacity frees.
        assert (
            tenant(report, "w").admitted_at <= tenant(report, "n").admitted_at
        )

    def test_smallest_backfills_narrow_tenant(self):
        report = self._three_tenant_report("smallest")
        # The narrow tenant slips past the blocked wide head immediately.
        assert tenant(report, "n").queue_wait == 0.0
        assert tenant(report, "w").queue_wait > 0.0

    def test_fair_share_prefers_unserved_user(self):
        service = WorkflowService(
            sim_cores=1024, staging_cores=64, policy="fair_share"
        )
        # alice's first tenant runs alone and accrues usage; when it
        # completes, bob's queued tenant is admitted before alice's
        # second, despite arriving later.
        service.submit(
            "alice-1", config(), small_trace(seed=1), user="alice"
        )
        service.submit(
            "alice-2", config(), small_trace(seed=2),
            arrival=1.0, user="alice",
        )
        service.submit(
            "bob-1", config(), small_trace(seed=3), arrival=2.0, user="bob"
        )
        report = service.run()
        assert (
            tenant(report, "bob-1").admitted_at
            < tenant(report, "alice-2").admitted_at
        )


class TestServiceErrors:
    def test_duplicate_tenant_name(self):
        service = WorkflowService()
        service.submit("t", config(), small_trace())
        with pytest.raises(ServiceError):
            service.submit("t", config(), small_trace())

    def test_negative_arrival(self):
        service = WorkflowService()
        with pytest.raises(ServiceError):
            service.submit("t", config(), small_trace(), arrival=-1.0)

    def test_infeasible_tenant_rejected_at_submit(self):
        service = WorkflowService(sim_cores=512, staging_cores=64)
        with pytest.raises(ServiceError):
            service.submit("wide", config(sim_cores=1024), small_trace())

    def test_run_without_tenants(self):
        with pytest.raises(ServiceError):
            WorkflowService().run()

    def test_run_twice(self):
        service = WorkflowService()
        service.submit("t", config(), small_trace())
        service.run()
        with pytest.raises(ServiceError):
            service.run()

    def test_submit_after_run(self):
        service = WorkflowService()
        service.submit("t", config(), small_trace())
        service.run()
        with pytest.raises(ServiceError):
            service.submit("late", config(), small_trace())

    def test_bad_starvation_wait(self):
        with pytest.raises(ServiceError):
            WorkflowService(starvation_wait=0.0)


class TestKernelIntegration:
    def test_service_traffic_rides_tenant_events(self):
        service = WorkflowService()
        service.submit("t", config(), small_trace())
        service.run()
        assert service.sim.kernel.counters.processed[TENANT] > 0
