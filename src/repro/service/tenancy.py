"""The multi-tenant workflow service: N coupled workflows, one machine.

The paper runs one coupled workflow per machine; production staging
systems (the deployments the paper builds on) serve *several*
applications from one staging pool.  :class:`WorkflowService` closes
that gap: tenants -- complete :class:`~repro.workflow.driver.
CoupledWorkflow` configurations with an arrival time -- are admitted
onto ONE shared simulated machine (one simulator clock, one network
fabric, one parallel file system, one staging-core pool) under an
admission policy, and each admitted tenant's Eq. 9-10 rightsizing then
*negotiates* against the shared pool instead of assuming it owns the
staging partition.

Mechanics
---------

- The service builds the staging-uplink network once
  (:func:`~repro.hpc.systems.build_workflow_network` with the pool
  sizes); arrivals, queue drains and grant renegotiations all ride
  typed ``tenant`` kernel events so the kernel's per-kind counters
  attribute service traffic.
- Each admitted tenant gets its own :class:`~repro.staging.area.
  StagingArea` spanning the whole pool, masked down to its grant with
  ``fail_cores`` (and expanded with ``restore_cores`` when it borrows),
  so the area-level ``active <= healthy <= total`` invariant *is* the
  grant ledger, checked on every mutation.  Shrinking a grant below a
  running job's width preempts it exactly like a core-loss fault: the
  job aborts and re-runs from its staged copy.
- A completion watcher process per tenant calls
  :meth:`~repro.workflow.driver.CoupledWorkflow.finalize` at the
  tenant's exact completion time, so staging-utilization integrals and
  the energy model close at the tenant's own end, then releases the
  grant and drains the admission queue.

Single-tenant equivalence
-------------------------

With one tenant whose requests equal the pool sizes, every constructor
argument and every actuation the service performs is identical to the
direct :meth:`CoupledWorkflow.run` path: the grant equals the pool (no
mask), negotiation reduces to ``set_active_cores(requested)``, and the
tenant's trace and result are *bit-identical* to the direct path (the
regression suite diffs both).  Shared-fabric quantities
(``network.total_bytes_moved`` in the energy model, PFS byte counters)
are fabric-wide by design; with one tenant they coincide with the
tenant's own traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ServiceError
from repro.hpc.event import Simulator
from repro.hpc.filesystem import ParallelFileSystem
from repro.hpc.kernel import TENANT
from repro.hpc.systems import SystemSpec, build_workflow_network, titan
from repro.observability.events import (
    TENANT_ADMITTED,
    TENANT_COMPLETED,
    TENANT_GRANT,
    TENANT_QUEUED,
    TENANT_REJECTED,
    TENANT_STARVED,
    TENANT_SUBMITTED,
)
from repro.observability.ledger import PredictionLedger
from repro.observability.metrics import EmaTimer, Gauge, MetricsRegistry
from repro.observability.observer import Observer, instrument, publish
from repro.observability.tracer import Tracer
from repro.service.admission import AdmissionController
from repro.service.scheduler import TenantScheduler
from repro.staging.area import StagingArea
from repro.workflow.config import WorkflowConfig
from repro.workflow.driver import CoupledWorkflow
from repro.workflow.metrics import WorkflowResult
from repro.workload.trace import WorkloadTrace

__all__ = [
    "ServiceReport",
    "Tenant",
    "TenantReport",
    "WorkflowService",
]

@dataclass(eq=False)
class Tenant:
    """One submitted workflow's runtime record (the handle ``submit``
    returns).  ``state`` walks ``submitted -> queued -> admitted ->
    completed`` (or ``-> rejected`` when the admission queue is full)."""

    name: str
    config: WorkflowConfig
    trace: WorkloadTrace
    arrival: float
    user: str = "default"
    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    ledger: PredictionLedger | None = None
    state: str = "submitted"
    base_grant: int = 0
    grant: int = 0
    admitted_at: float | None = None
    completed_at: float | None = None
    starved: bool = False
    workflow: CoupledWorkflow | None = None
    result: WorkflowResult | None = None
    report: "TenantReport | None" = None


@dataclass(frozen=True)
class TenantReport:
    """One tenant's SLO/fairness numbers, captured at its completion.

    ``slowdown`` is time-to-solution over the tenant's own aggregate
    simulation time -- the contention-sensitive part of its run --
    normalizing tenants of different sizes onto one scale.
    """

    name: str
    user: str
    arrival: float
    admitted_at: float
    completed_at: float
    queue_wait: float
    time_to_solution: float
    slowdown: float
    base_grant: int
    final_grant: int
    staging_share: float  # base grant as a fraction of the pool
    busy_core_seconds: float
    allocated_core_seconds: float
    starved: bool
    result: WorkflowResult

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready summary (without the embedded result)."""
        return {
            "name": self.name,
            "user": self.user,
            "arrival": self.arrival,
            "admitted_at": self.admitted_at,
            "completed_at": self.completed_at,
            "queue_wait": self.queue_wait,
            "time_to_solution": self.time_to_solution,
            "slowdown": self.slowdown,
            "base_grant": self.base_grant,
            "final_grant": self.final_grant,
            "staging_share": self.staging_share,
            "busy_core_seconds": self.busy_core_seconds,
            "allocated_core_seconds": self.allocated_core_seconds,
            "starved": self.starved,
        }


@dataclass(frozen=True)
class ServiceReport:
    """The whole service run: per-tenant reports plus fleet aggregates."""

    policy: str
    sim_cores: int
    staging_cores: int
    tenants: tuple[TenantReport, ...]
    rejected: tuple[str, ...]
    makespan: float  # last completion on the shared clock
    starvations: int = 0

    @property
    def fairness_index(self) -> float:
        """Jain's index over per-tenant slowdowns (1.0 = perfectly fair)."""
        slowdowns = [t.slowdown for t in self.tenants]
        if not slowdowns:
            return 1.0
        square_of_sum = sum(slowdowns) ** 2
        sum_of_squares = sum(s * s for s in slowdowns)
        if sum_of_squares == 0:
            return 1.0
        return square_of_sum / (len(slowdowns) * sum_of_squares)

    def as_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "sim_cores": self.sim_cores,
            "staging_cores": self.staging_cores,
            "makespan": self.makespan,
            "fairness_index": self.fairness_index,
            "starvations": self.starvations,
            "rejected": list(self.rejected),
            "tenants": [t.as_dict() for t in self.tenants],
        }


class WorkflowService:
    """Admit N tenant workflows onto one shared simulated machine.

    Parameters
    ----------
    spec:
        The shared machine's system preset (default Titan).
    sim_cores, staging_cores:
        Pool sizes: the whole simulation partition and the whole staging
        partition every tenant shares.
    policy:
        Admission-queue drain order (:data:`~repro.service.admission.
        ADMISSION_POLICIES`).
    max_queue:
        Bounded admission queue; arrivals beyond it are rejected
        (``None`` = unbounded).
    starvation_wait:
        When set, a queued tenant waiting longer than this (simulated
        seconds) raises the ``tenant.starved`` event and counter once.
    tracer, metrics, profiler:
        Service-level observability: ``tenant.*`` events, and the
        ``service.*`` tallies :meth:`run` adds to ``metrics``, distinct
        from each tenant's own hooks (which see what a solo run would
        emit).  The profiler spans ``sim.run`` and reaches every tenant.
    """

    def __init__(
        self,
        spec: SystemSpec | None = None,
        sim_cores: int = 1024,
        staging_cores: int = 64,
        *,
        policy: str = "fifo",
        max_queue: int | None = None,
        starvation_wait: float | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: Any = None,
    ):
        self.spec = spec if spec is not None else titan()
        self.observer = Observer(tracer=tracer)
        self._registry = metrics
        self.profiler = profiler
        self.sim = Simulator()
        instrument(profiler, self.sim, {"run": "sim.run"})
        self.network = build_workflow_network(
            self.sim, self.spec, sim_cores, staging_cores
        )
        self.pfs = ParallelFileSystem(
            self.sim,
            self.network,
            write_bandwidth=self.spec.pfs_write_bandwidth,
            read_bandwidth=self.spec.pfs_read_bandwidth,
            latency=self.spec.pfs_latency,
        )
        self.pfs.attach("sim")
        self.pfs.attach("staging")
        self.scheduler = TenantScheduler(sim_cores, staging_cores)
        self.admission = AdmissionController(policy=policy, max_queue=max_queue)
        if starvation_wait is not None and starvation_wait <= 0:
            raise ServiceError(
                f"starvation_wait must be positive, got {starvation_wait}"
            )
        self.starvation_wait = starvation_wait
        self.sim_cores = int(sim_cores)
        self.staging_cores = int(staging_cores)
        self._staging_memory = self.spec.partition_memory(staging_cores)
        self.tracer = self.observer.tracer
        kernel = self.sim.kernel
        self.observer.bind_clock(lambda: kernel.now)
        self.tenants: list[Tenant] = []
        self._starvation_count = 0
        #: Grant renegotiations that borrowed / returned pool cores, and
        #: the EMA of admitted tenants' queue waits.
        self.grant_expansions = 0
        self.grant_shrinks = 0
        self.queue_wait_seconds = EmaTimer(0.3)
        self._ran = False

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        name: str,
        config: WorkflowConfig,
        trace: WorkloadTrace,
        *,
        arrival: float = 0.0,
        user: str = "default",
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        ledger: PredictionLedger | None = None,
    ) -> Tenant:
        """Register a tenant arriving at ``arrival`` simulated seconds.

        Must be called before :meth:`run`.  Raises
        :class:`~repro.errors.ServiceError` for requests that could
        never be admitted even on an empty machine (they would wait
        forever); requests that merely exceed the *currently* free
        capacity queue normally.
        """
        if self._ran:
            raise ServiceError("service already ran; submit before run()")
        if any(t.name == name for t in self.tenants):
            raise ServiceError(f"duplicate tenant name {name!r}")
        if arrival < 0:
            raise ServiceError(f"arrival must be >= 0, got {arrival}")
        if not self.scheduler.feasible(config.sim_cores, config.staging_cores):
            raise ServiceError(
                f"tenant {name!r} can never fit the machine: needs "
                f"{config.sim_cores} sim cores (capacity "
                f"{self.scheduler.compute_total}) and a minimum staging "
                f"grant of {self.scheduler.min_staging_grant(config.staging_cores)} "
                f"(pool {self.staging_cores})"
            )
        tenant = Tenant(
            name=name, config=config, trace=trace, arrival=float(arrival),
            user=user, tracer=tracer, metrics=metrics, ledger=ledger,
        )
        self.tenants.append(tenant)
        self.sim._schedule_at(
            tenant.arrival, self._arrive, tenant, kind=TENANT
        )
        return tenant

    # -- service loop --------------------------------------------------------

    def _arrive(self, tenant: Tenant) -> None:
        self.tracer.emit(
            TENANT_SUBMITTED,
            tenant=tenant.name,
            user=tenant.user,
            sim_cores=tenant.config.sim_cores,
            staging_cores=tenant.config.staging_cores,
            steps=len(tenant.trace),
        )
        if not self.admission.enqueue(tenant):
            tenant.state = "rejected"
            self.tracer.emit(
                TENANT_REJECTED,
                tenant=tenant.name,
                queue_depth=len(self.admission),
            )
            return
        tenant.state = "queued"
        self.tracer.emit(
            TENANT_QUEUED, tenant=tenant.name, queue_depth=len(self.admission)
        )
        if self.starvation_wait is not None:
            # Exact detection: fires at enqueue + threshold, not at the
            # next arrival/completion that happens to drain the queue.
            self.sim._schedule_at(
                self.sim.now + self.starvation_wait,
                self._check_starvation,
                tenant,
                kind=TENANT,
            )
        self._drain()

    def _drain(self) -> None:
        """Admit queued tenants while the policy finds one that fits."""
        while True:
            tenant = self.admission.pick(
                fits=lambda t: self.scheduler.fits(
                    t.config.sim_cores, t.config.staging_cores
                ),
                footprint=lambda t: t.config.staging_cores,
                user=lambda t: t.user,
                usage=self.scheduler.usage,
            )
            if tenant is None:
                break
            self._admit(tenant)

    def _check_starvation(self, tenant: Tenant) -> None:
        if tenant.state != "queued" or tenant.starved:
            return
        tenant.starved = True
        self._starvation_count += 1
        self.tracer.emit(
            TENANT_STARVED,
            tenant=tenant.name,
            queue_wait=self.sim.now - tenant.arrival,
            queue_depth=len(self.admission),
        )

    def _admit(self, tenant: Tenant) -> None:
        grant = self.scheduler.admit(
            tenant.config.sim_cores, tenant.config.staging_cores
        )
        tenant.base_grant = tenant.grant = grant
        tenant.admitted_at = self.sim.now
        tenant.state = "admitted"
        queue_wait = self.sim.now - tenant.arrival
        # The tenant's staging area spans the whole pool, masked down to
        # its grant; its memory is the grant's proportional share of the
        # staging partition.  A full-pool grant is exactly the direct
        # path's construction (no mask, whole partition memory).
        observer = Observer(tenant.tracer, tenant.ledger)
        area = StagingArea(
            self.sim,
            self.network,
            core_rate=tenant.config.spec.core_rate,
            total_cores=self.staging_cores,
            active_cores=grant,
            memory_bytes=self._staging_memory * (grant / self.staging_cores),
            observer=observer,
        )
        if grant < self.staging_cores:
            area.fail_cores(self.staging_cores - grant)
        tenant.workflow = CoupledWorkflow(
            tenant.config,
            tenant.trace,
            tracer=tenant.tracer,
            metrics=tenant.metrics,
            ledger=tenant.ledger,
            profiler=self.profiler,
            sim=self.sim,
            network=self.network,
            staging=area,
            staging_resizer=lambda requested, t=tenant: self._negotiate(
                t, requested
            ),
            # Eq. 9-10 sizes against the negotiable headroom: the grant
            # plus whatever the pool has uncommitted right now.
            staging_ceiling=lambda t=tenant: (
                t.grant + self.scheduler.staging_uncommitted
            ),
            pfs=self.pfs,
        )
        self.sim.process(self._watch(tenant), "tenant(%s)", tenant.name)
        self.tracer.emit(
            TENANT_ADMITTED,
            tenant=tenant.name,
            grant=grant,
            requested=tenant.config.staging_cores,
            queue_wait=queue_wait,
            staging_committed=self.scheduler.staging_committed,
        )
        self.queue_wait_seconds.observe(queue_wait)

    def _watch(self, tenant: Tenant):
        """Completion watcher: finalize at the tenant's exact end time."""
        yield tenant.workflow.start()
        result = tenant.workflow.finalize()
        tenant.result = result
        tenant.completed_at = self.sim.now
        tenant.state = "completed"
        area = tenant.workflow.staging
        allocated = area.allocated_core_seconds()
        busy = area.busy_core_seconds()
        self.scheduler.release(
            tenant.config.sim_cores, tenant.grant, tenant.user, allocated
        )
        queue_wait = tenant.admitted_at - tenant.arrival
        time_to_solution = self.sim.now - tenant.arrival
        tenant.report = TenantReport(
            name=tenant.name,
            user=tenant.user,
            arrival=tenant.arrival,
            admitted_at=tenant.admitted_at,
            completed_at=tenant.completed_at,
            queue_wait=queue_wait,
            time_to_solution=time_to_solution,
            slowdown=(
                time_to_solution / result.total_sim_seconds
                if result.total_sim_seconds > 0
                else 1.0
            ),
            base_grant=tenant.base_grant,
            final_grant=tenant.grant,
            staging_share=tenant.base_grant / self.staging_cores,
            busy_core_seconds=busy,
            allocated_core_seconds=allocated,
            starved=tenant.starved,
            result=result,
        )
        self.tracer.emit(
            TENANT_COMPLETED,
            tenant=tenant.name,
            time_to_solution=time_to_solution,
            queue_wait=queue_wait,
            grant=tenant.grant,
            end_to_end_seconds=result.end_to_end_seconds,
        )
        # Freed capacity: drain the queue on a fresh tenant-kind event so
        # kernel counters attribute admission work to the service.
        self.sim._schedule_at(self.sim.now, self._drain, kind=TENANT)

    def _negotiate(self, tenant: Tenant, requested: int) -> None:
        """Grant negotiation: the tenant's Eq. 9-10 resize, pool-clamped.

        Expansion borrows only *uncommitted* pool cores; shrink returns
        borrowed cores but never cuts below the admission base grant, so
        a tenant that briefly asks for less cannot lose its reservation.
        With a full-pool grant (single tenant) both branches are inert
        and this reduces to the direct path's ``set_active_cores``.
        """
        area = tenant.workflow.staging
        if requested > tenant.grant:
            took = self.scheduler.borrow(requested - tenant.grant)
            if took:
                area.restore_cores(took)
                tenant.grant += took
                self.tracer.emit(
                    TENANT_GRANT,
                    tenant=tenant.name,
                    delta=took,
                    grant=tenant.grant,
                    requested=requested,
                    staging_committed=self.scheduler.staging_committed,
                )
                self.grant_expansions += 1
        elif requested < tenant.grant and tenant.grant > tenant.base_grant:
            give = min(
                tenant.grant - requested, tenant.grant - tenant.base_grant
            )
            area.fail_cores(give)
            self.scheduler.give_back(give)
            tenant.grant -= give
            self.tracer.emit(
                TENANT_GRANT,
                tenant=tenant.name,
                delta=-give,
                grant=tenant.grant,
                requested=requested,
                staging_committed=self.scheduler.staging_committed,
            )
            self.grant_shrinks += 1
        area.set_active_cores(min(requested, tenant.grant))

    def _tallies(self) -> dict:
        """The service's counts, by metric name (:func:`publish`)."""
        states = [t.state for t in self.tenants]
        admitted = sum(t.admitted_at is not None for t in self.tenants)
        tallies = {
            "service.tenants_admitted": admitted,
            "service.tenants_rejected": states.count("rejected"),
            "service.tenants_completed": states.count("completed"),
            "service.starvations": self._starvation_count,
            "service.grant_expansions": self.grant_expansions,
            "service.grant_shrinks": self.grant_shrinks,
            "service.queue_wait_seconds": self.queue_wait_seconds,
        }
        if admitted:  # every grant change from the first admission on
            tallies["service.staging_committed_cores"] = Gauge(
                self.scheduler.staging_committed)
        return tallies

    # -- terminal ------------------------------------------------------------

    def run(self) -> ServiceReport:
        """Drive the shared clock until every tenant finishes."""
        if self._ran:
            raise ServiceError("service already ran")
        if not self.tenants:
            raise ServiceError("no tenants submitted")
        self._ran = True
        self.sim.run()
        publish(self._registry, self._tallies)
        unserved = [
            t.name for t in self.tenants
            if t.state not in ("completed", "rejected")
        ]
        if unserved:  # pragma: no cover - feasibility check prevents this
            raise ServiceError(
                "tenants never served: " + ", ".join(sorted(unserved))
            )
        reports = tuple(
            t.report for t in self.tenants if t.report is not None
        )
        return ServiceReport(
            policy=self.admission.policy,
            sim_cores=self.sim_cores,
            staging_cores=self.staging_cores,
            tenants=reports,
            rejected=tuple(
                t.name for t in self.tenants if t.state == "rejected"
            ),
            makespan=self.sim.now,
            starvations=self._starvation_count,
        )
