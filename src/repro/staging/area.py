"""The in-transit staging area: resizable core pool executing analysis jobs.

This is the execution half of the staging substrate.  Each workflow time
step placed in-transit becomes an :class:`AnalysisJob`: its data is
ingested over the simulated network (asynchronously -- the simulation
does not wait), held in staging memory, and processed FIFO by the staging
cores.  A job runs data-parallel across all *active* cores, so its
service time is ``work_units / (core_rate * M)`` -- the paper's
``T_intransit(M, S_data)``.

The area tracks exactly what the paper's policies and metrics consume:

- :meth:`estimated_remaining_time` -- ``T_intransit_remaining`` for the
  middleware placement policy (Eq. 7);
- busy/allocated core-second integrals -- utilization efficiency (Eq. 12);
- per-job ingest byte counts -- total data movement (Figs. 8, 11);
- :meth:`set_active_cores` -- the resource-layer actuator (Eq. 9-10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StagingError
from repro.hpc.event import Event, Interrupt, Simulator
from repro.hpc.kernel import event_kind_code
from repro.hpc.network import Network
from repro.hpc.resources import Store
from repro.observability.events import (
    STAGING_INGEST,
    STAGING_JOB_ABORT,
    STAGING_JOB_END,
    STAGING_JOB_START,
    STAGING_RESIZE,
    STAGING_RETRY,
    STAGING_SUBMIT,
)
from repro.observability.observer import NULL_OBSERVER, Observer
from repro.staging.messaging import RetryPolicy, retry_with_backoff

__all__ = ["AnalysisJob", "StagingArea"]

_STAGING = event_kind_code("staging")


@dataclass(eq=False)
class AnalysisJob:
    """One in-transit analysis task (typically: one time step's data)."""

    job_id: int
    step: int
    nbytes: float
    work_units: float
    submitted_at: float
    ingest_done: Event
    done: Event
    started_at: float | None = None
    finished_at: float | None = None
    cores_used: int = 0
    #: Duration of the pass that completed the job (0 until it completes).
    service_seconds: float = 0.0

    @property
    def queue_delay(self) -> float | None:
        """Time between submission and service start (None until started)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at


@dataclass
class _CoreSample:
    """Active core count over a time interval (for Table 2)."""

    start: float
    cores: int


class StagingArea:
    """A pool of staging cores fed by asynchronous ingest transfers.

    Parameters
    ----------
    sim:
        Event simulator.
    network:
        The machine network; ingest transfers go from endpoint ``"sim"``
        to endpoint ``"staging"``.
    core_rate:
        Work units per second per core (same calibration as the machine).
    total_cores:
        Physically allocated staging cores (the static preallocation).
    active_cores:
        Cores initially enabled (resource adaptation may change this).
    memory_bytes:
        Staging memory for in-flight step data (Eq. 10's constraint).
    observer:
        The observability hooks
        (:class:`~repro.observability.observer.Observer`).  Submissions,
        ingest completions, job service boundaries and core resizes emit
        ``staging.*`` events; each submission resolves the middleware
        layer's pending ``memory_demand`` prediction with the bytes
        actually ingested.  The default observer's hooks are null
        objects that do nothing.
    faults:
        Optional :class:`repro.faults.FaultInjector`.  When attached, the
        area can lose and regain cores (:meth:`fail_cores` /
        :meth:`restore_cores`), ingest attempts the plan marks as dropped
        are retried under ``retry_policy``, corrupted analyses re-run from
        the staged copy, and straggler windows stretch service times.
        When ``None`` (the default) every code path is byte-identical to
        the fault-free area.
    retry_policy:
        Bounded-backoff policy for faulted ingest attempts (only consulted
        when a fault plan drops objects).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        core_rate: float,
        total_cores: int,
        active_cores: int | None = None,
        memory_bytes: float = float("inf"),
        faults=None,
        retry_policy: RetryPolicy | None = None,
        observer: Observer = NULL_OBSERVER,
    ):
        if total_cores < 1:
            raise StagingError(f"need at least one staging core, got {total_cores}")
        if core_rate <= 0:
            raise StagingError(f"core_rate must be positive, got {core_rate}")
        self.sim = sim
        self.network = network
        self.core_rate = float(core_rate)
        self.total_cores = int(total_cores)
        self._active_cores = int(active_cores if active_cores is not None else total_cores)
        if not (1 <= self._active_cores <= self.total_cores):
            raise StagingError(
                f"active cores {self._active_cores} outside [1, {total_cores}]"
            )
        self.memory_total = float(memory_bytes)
        self.memory_used = 0.0
        self.tracer = observer.tracer
        self.ledger = observer.ledger
        self.faults = faults
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._failed_cores = 0
        self._restored: Event | None = None

        #: Jobs submitted (the next job's id), ingests retried on faults.
        self.jobs_submitted = 0
        self.retries = 0
        self._queue: Store = Store(sim, name="staging-jobs")
        self._queued_work = 0.0
        self._running: AnalysisJob | None = None
        self._running_ends_at = 0.0
        self.completed: list[AnalysisJob] = []
        self.bytes_ingested = 0.0

        # Utilization accounting (Eq. 12): integrals of busy and allocated
        # core-seconds, plus the active-core history for Table 2.
        self._busy_core_seconds = 0.0
        self._alloc_last_change = sim.now
        self._alloc_core_seconds = 0.0
        self.core_history: list[_CoreSample] = [_CoreSample(sim.now, self._active_cores)]

        self._worker = sim.process(self._serve(), name="staging-worker")
        if faults is not None:
            faults.attach_staging(self)

    # -- resource-layer actuator ------------------------------------------------

    @property
    def active_cores(self) -> int:
        """Cores currently enabled for analysis."""
        return self._active_cores

    def set_active_cores(self, count: int) -> None:
        """Resize the enabled core count (takes effect for subsequent jobs)."""
        if not (1 <= count <= self.total_cores):
            raise StagingError(
                f"active core count {count} outside [1, {self.total_cores}]"
            )
        if self._failed_cores:
            # Failed cores cannot be enabled; clamp silently so the
            # resource layer's sizing still applies after a core loss.
            # At a total blackout the nominal active set is one core --
            # service is suspended, so it is never used, and a resize
            # racing the fault window cannot resurrect dead capacity.
            count = min(count, max(1, self.healthy_cores))
        previous = self._active_cores
        self._account_alloc()
        self._active_cores = int(count)
        self.core_history.append(_CoreSample(self.sim.now, count))
        if self.tracer.enabled and count != previous:
            self.tracer.emit(STAGING_RESIZE, cores=count, previous=previous)
        self._check_invariants()

    def _account_alloc(self) -> None:
        now = self.sim.now
        # During a blackout (no healthy cores) nothing is effectively
        # allocated; with no faults this is exactly the active count.
        effective = self._active_cores if self.reachable else 0
        self._alloc_core_seconds += effective * (now - self._alloc_last_change)
        self._alloc_last_change = now

    # -- fault surface -----------------------------------------------------------

    @property
    def healthy_cores(self) -> int:
        """Physically usable cores: ``total_cores - failed_cores``."""
        return self.total_cores - self._failed_cores

    @property
    def reachable(self) -> bool:
        """False only during a total staging blackout (every core dead)."""
        return self._failed_cores < self.total_cores

    def fail_cores(self, count: int) -> int:
        """Kill up to ``count`` staging cores; returns how many actually died.

        The active set is clamped to the surviving cores, and a running
        job that loses cores it was using aborts and re-runs from its
        staged copy once cores are available again.
        """
        if count < 1:
            raise StagingError(f"fail_cores needs count >= 1, got {count}")
        killed = min(count, self.healthy_cores)
        if killed == 0:
            return 0
        self._account_alloc()
        self._failed_cores += killed
        if self._active_cores > max(1, self.healthy_cores):
            self.set_active_cores(max(1, self.healthy_cores))
        if self._running is not None and self._running.cores_used > self.healthy_cores:
            self._worker.interrupt("core loss")
        self._check_invariants()
        return killed

    def restore_cores(self, count: int) -> int:
        """Return up to ``count`` failed cores; returns how many came back.

        Restored cores rejoin as allocated-but-inactive; the resource
        layer re-enables them on its next resize.  If the area was
        unreachable, service resumes and aborted work re-runs.
        """
        if count < 1:
            raise StagingError(f"restore_cores needs count >= 1, got {count}")
        revived = min(count, self._failed_cores)
        if revived == 0:
            return 0
        was_unreachable = not self.reachable
        self._account_alloc()
        self._failed_cores -= revived
        if was_unreachable and self.reachable and self._restored is not None:
            restored, self._restored = self._restored, None
            restored.succeed()
        self._check_invariants()
        return revived

    def _check_invariants(self) -> None:
        """Core-accounting invariant, asserted after every mutation.

        ``active_cores <= healthy_cores <= total_cores`` whenever any
        core is healthy; during a total blackout the nominal active set
        is exactly one core (service is suspended, so it is never
        consulted).  A violation means a resize and a fault window
        interleaved incorrectly -- fail loudly rather than letting jobs
        run on more cores than physically exist.
        """
        if not 0 <= self._failed_cores <= self.total_cores:
            raise StagingError(
                f"failed core count {self._failed_cores} outside "
                f"[0, {self.total_cores}]"
            )
        if not 1 <= self._active_cores <= self.total_cores:
            raise StagingError(
                f"active core count {self._active_cores} outside "
                f"[1, {self.total_cores}]"
            )
        if self._active_cores > max(1, self.healthy_cores):
            raise StagingError(
                f"staging core invariant violated: active {self._active_cores} "
                f"> healthy {self.healthy_cores} (total {self.total_cores})"
            )

    # -- job submission -----------------------------------------------------------

    def service_time(self, work_units: float, cores: int | None = None) -> float:
        """``T_intransit(M, S_data)``: run time of a job on ``cores`` cores."""
        m = cores if cores is not None else self._active_cores
        if m < 1:
            raise StagingError(f"cores must be >= 1, got {m}")
        return work_units / (self.core_rate * m)

    def can_fit(self, nbytes: float) -> bool:
        """Eq. 10's memory check for the next step's data."""
        return self.memory_used + nbytes <= self.memory_total * (1 + 1e-9)

    def submit(self, step: int, nbytes: float, work_units: float) -> AnalysisJob:
        """Ingest a step's data asynchronously and queue its analysis.

        Raises :class:`StagingError` if staging memory cannot hold the
        data -- callers (the middleware policy) must check :meth:`can_fit`
        first; the paper falls back to in-situ in that case.
        """
        if not self.reachable:
            raise StagingError(
                "staging unreachable: every staging core has failed"
            )
        if not self.can_fit(nbytes):
            raise StagingError(
                f"staging memory full: {self.memory_used:.0f} + {nbytes:.0f} "
                f"> {self.memory_total:.0f}"
            )
        if work_units < 0 or nbytes < 0:
            raise StagingError("job sizes must be non-negative")
        self.memory_used += nbytes
        self.bytes_ingested += nbytes
        job = AnalysisJob(
            job_id=self.jobs_submitted,
            step=step,
            nbytes=nbytes,
            work_units=work_units,
            submitted_at=self.sim.now,
            ingest_done=self._ingest(step, nbytes),
            done=self.sim.event(name=f"analysis(step={step})"),
        )
        self.jobs_submitted += 1
        self._queued_work += work_units
        self._queue.put(job)
        if self.ledger.has_pending("memory_demand", step):
            self.ledger.resolve("memory_demand", step, nbytes)
        if self.tracer.enabled:
            self.tracer.emit(
                STAGING_SUBMIT,
                step=step,
                job_id=job.job_id,
                nbytes=nbytes,
                work_units=work_units,
                memory_used=self.memory_used,
            )
            job.ingest_done.add_callback(
                lambda _evt, job=job: self._trace_ingest(job)
            )
        return job

    def _trace_ingest(self, job: AnalysisJob) -> None:
        self.tracer.emit(
            STAGING_INGEST, step=job.step, job_id=job.job_id, nbytes=job.nbytes
        )

    def _ingest(self, step: int, nbytes: float) -> Event:
        """Start the ingest transfer, retrying under faults when planned.

        The returned event fires with the accepted
        :class:`~repro.hpc.network.Transfer`; on the fault-free path it is
        exactly the network's completion event.
        """
        if self.faults is None or not self.faults.may_drop(step):
            return self.network.transfer("sim", "staging", nbytes)

        def _attempt(_k: int) -> Event:
            return self.network.transfer("sim", "staging", nbytes)

        def _accept(_k: int, _transfer) -> bool:
            return not self.faults.consume_drop(step)

        def _on_retry(k: int, delay: float) -> None:
            self.retries += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    STAGING_RETRY,
                    step=step,
                    attempt=k + 1,
                    backoff_seconds=delay,
                    nbytes=nbytes,
                )

        return retry_with_backoff(
            self.sim,
            _attempt,
            self.retry_policy,
            accept=_accept,
            on_retry=_on_retry,
            describe=f"ingest(step={step})",
        )

    def _serve(self):
        while True:
            job: AnalysisJob = yield self._queue.get()
            # Data must have arrived before analysis can touch it.
            yield job.ingest_done
            self._queued_work -= job.work_units
            while True:
                if self.faults is not None and not self.reachable:
                    # Total blackout: hold the staged copy until cores
                    # return, then resume service.
                    self._restored = self.sim.event(name="staging-restored")
                    self._queued_work += job.work_units
                    yield self._restored
                    self._queued_work -= job.work_units
                cores = self._active_cores
                duration = self.service_time(job.work_units, cores)
                if self.faults is not None:
                    duration *= self.faults.service_multiplier(self.sim.now)
                job.started_at = self.sim.now
                job.cores_used = cores
                self._running = job
                self._running_ends_at = self.sim.now + duration
                if self.tracer.enabled:
                    self.tracer.emit(
                        STAGING_JOB_START,
                        step=job.step,
                        job_id=job.job_id,
                        cores=cores,
                        queue_delay=job.queue_delay,
                        work_units=job.work_units,
                    )
                try:
                    yield self.sim.timeout(duration, kind=_STAGING)
                except Interrupt as interrupt:
                    # Core loss aborted the pass; the partial service is
                    # real core time, and the job re-runs from the staged
                    # copy (analysis is idempotent).
                    elapsed = max(0.0, self.sim.now - job.started_at)
                    self._busy_core_seconds += cores * elapsed
                    self._running = None
                    if self.tracer.enabled:
                        self.tracer.emit(
                            STAGING_JOB_ABORT,
                            step=job.step,
                            job_id=job.job_id,
                            cause=str(interrupt.cause),
                            lost_seconds=elapsed,
                        )
                    continue
                self._busy_core_seconds += cores * duration
                self._running = None
                if self.faults is not None and self.faults.consume_corrupt(job.step):
                    # At-rest corruption detected on completion: the result
                    # is discarded and the job re-runs from the staged copy.
                    continue
                break
            self._complete(job, duration)

    def _complete(self, job: AnalysisJob, duration: float) -> None:
        """Completion bookkeeping for one drained job (synchronous)."""
        job.finished_at = self.sim.now
        job.service_seconds = duration
        # Clamp: float residue must never drive the gauge negative.
        self.memory_used = max(0.0, self.memory_used - job.nbytes)
        self.completed.append(job)
        if self.tracer.enabled:
            self.tracer.emit(
                STAGING_JOB_END,
                step=job.step,
                job_id=job.job_id,
                service_seconds=duration,
                memory_used=self.memory_used,
            )
        job.done.succeed(job)

    # -- state the policies observe ------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while a job is running or queued (Fig. 4's 'busy' state)."""
        return self._running is not None or len(self._queue) > 0 or self._queued_work > 0

    @property
    def queue_depth(self) -> int:
        """Jobs waiting behind the one in service (a pressure indicator)."""
        return len(self._queue)

    def estimated_remaining_time(self) -> float:
        """``T_intransit_remaining``: time to drain running + queued work."""
        remaining = 0.0
        if self._running is not None:
            remaining += max(0.0, self._running_ends_at - self.sim.now)
        # ``_queued_work`` is a running float sum of += / -= updates; it can
        # drift a few ULPs below zero once the queue empties.
        queued = max(0.0, self._queued_work)
        remaining += queued / (self.core_rate * self._active_cores)
        return remaining

    def utilization_efficiency(self) -> float:
        """Eq. 12: busy core-seconds over allocated core-seconds."""
        self._account_alloc()
        if self._alloc_core_seconds == 0:
            return 0.0
        return self._busy_core_seconds / self._alloc_core_seconds

    def idle_time(self) -> float:
        """Allocated-but-idle core-seconds (the waste adaptive allocation cuts)."""
        self._account_alloc()
        return self._alloc_core_seconds - self._busy_core_seconds

    def busy_core_seconds(self) -> float:
        """Core-seconds spent executing analysis."""
        return self._busy_core_seconds

    def allocated_core_seconds(self) -> float:
        """Core-seconds of active allocation so far."""
        self._account_alloc()
        return self._alloc_core_seconds
