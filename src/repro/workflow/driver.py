"""The coupled workflow driver: trace -> simulated machine -> metrics.

Replays a :class:`~repro.workload.trace.WorkloadTrace` as a coupled
simulation + visualization workflow on the simulated machine:

- the *simulation pipeline* computes each step (trace-derived duration),
  optionally reduces its output in-situ (application layer), then either
  analyses in-situ (serializing with the simulation) or hands the data to
  the staging area (asynchronous ingest + queued in-transit analysis);
- the *staging pipeline* drains analysis jobs on the active staging cores.

End-to-end time is when both pipelines finish (Eq. 6).  The simulation
stalls only when staging memory cannot hold another step (the behaviour
that makes static in-transit placement expensive under refinement bursts
-- Fig. 4's ts=30 scenario).

The Monitor samples the state each step (or per the hint interval) and
the Adaptation Engine applies whichever layers the mode enables.
"""

from __future__ import annotations

from repro.core.actions import Placement
from repro.core.engine import AdaptationDecision, AdaptationEngine
from repro.core.monitor import Monitor
from repro.errors import WorkflowError
from repro.faults import FaultInjector, FaultPlan
from repro.hpc.event import Simulator
from repro.hpc.filesystem import ParallelFileSystem
from repro.hpc.kernel import COMPUTE
from repro.hpc.systems import build_workflow_network
from repro.observability.events import (
    PLACEMENT_FALLBACK,
    RUN_END,
    RUN_START,
    SIM_STALL,
    STEP_END,
    STEP_START,
)
from repro.observability.ledger import PredictionLedger
from repro.observability.metrics import EmaTimer, Gauge, MetricsRegistry
from repro.observability.observer import Observer, instrument, publish
from repro.observability.profiler import Profiler
from repro.observability.tracer import Tracer
from repro.staging.area import AnalysisJob, StagingArea
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.metrics import StepMetrics, WorkflowResult
from repro.workflow.triggers import (
    CalibrationFeedback,
    TriggerIndicators,
    TriggerPolicy,
)
from repro.workload.trace import WorkloadTrace

__all__ = ["CoupledWorkflow", "run_workflow"]


class CoupledWorkflow:
    """One workflow run; construct, then :meth:`run`.

    ``tracer`` and ``ledger`` are optional observability hooks
    (:mod:`repro.observability`), bundled into one
    :class:`~repro.observability.observer.Observer` shared with the
    Monitor, the Adaptation Engine and the staging area.
    Tracer and ledger clocks are bound to this run's simulator, and the
    driver itself emits ``run.*``/``step.*``/``sim.stall`` events,
    records every dispatch-time estimate against its realized value,
    and scores each in-situ/in-transit placement against its exact
    counterfactual.  A hook left ``None`` (the default) is a null
    object that does nothing, so the driver never branches on it.
    ``metrics`` is an optional registry :meth:`finalize` fills from the
    run's tallies (:func:`~repro.observability.observer.publish`).

    ``faults`` accepts a :class:`~repro.faults.FaultPlan`; the driver
    wraps it in a :class:`~repro.faults.FaultInjector` sharing this run's
    tracer, attaches that to the simulator, the network and the staging
    area and arms it.  Injected
    faults surface as ``fault.*`` trace events; the driver degrades
    staging placements to in-situ while staging is unreachable
    (``placement.fallback``) and re-runs the adaptation plan when the
    healthy core count changes, even off the sampling interval.

    ``trigger`` accepts a :class:`~repro.workflow.triggers.TriggerPolicy`;
    when injected, the Monitor's fixed sampling interval is replaced by
    the policy's verdict on each step's cheap streaming indicators
    (per-rank output volumes, skew, staging occupancy/queue depth), and
    -- when a ledger is also injected -- measured estimator bias/regret
    is fed back into the trigger's thresholds and the Monitor's
    estimate bias on the policy's ``recalibrate_every`` cadence.  Left
    ``None``, sampling is bit-identical to a build without triggers.

    ``profiler`` is wired from outside:
    :func:`~repro.observability.observer.instrument` wraps whole methods
    of the run, its Monitor, engine and staging area and -- when the
    workflow built it -- its simulator in spans (see
    :data:`~repro.observability.PROFILE_SPANS`).  Unlike the tracer, the
    profiler measures *real* wall-clock seconds -- how long the host
    takes to replay simulated time -- so only methods that never yield
    to the simulator are wrapped.

    ``sim``, ``network``, ``staging`` and ``pfs`` let an external
    orchestrator -- the multi-tenant service (:mod:`repro.service`) --
    inject shared infrastructure instead of having the workflow build
    its own: the workflow then rides an existing simulator clock,
    contends on a shared network, and runs against a staging area whose
    core pool the orchestrator masks.  ``staging_resizer`` replaces the
    driver's direct ``set_active_cores`` actuation with a negotiation
    callback (the service clamps Eq. 9-10 grants by the shared pool's
    uncommitted capacity), and ``staging_ceiling`` replaces the healthy
    core count as the resource policy's sizing bound (the service
    advertises grant + uncommitted pool, the negotiable headroom).
    All default to ``None``; the default path is
    bit-identical to builds before these hooks existed.  ``faults``
    requires a dedicated simulator and cannot be combined with an
    injected ``sim``.
    """

    def __init__(
        self,
        config: WorkflowConfig,
        trace: WorkloadTrace,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        ledger: PredictionLedger | None = None,
        faults: FaultPlan | None = None,
        trigger: TriggerPolicy | None = None,
        profiler: "Profiler | None" = None,
        sim: Simulator | None = None,
        network=None,
        staging: StagingArea | None = None,
        staging_resizer=None,
        staging_ceiling=None,
        pfs: ParallelFileSystem | None = None,
    ):
        if not len(trace):
            raise WorkflowError("trace has no steps")
        self.config = config
        self.trace = trace
        self.trigger = trigger
        observer = Observer(tracer, ledger)
        if faults is not None:
            faults = FaultInjector(faults, observer=observer)
        self.faults = faults
        if sim is None:
            sim = Simulator()
            instrument(profiler, sim, {"run": "sim.run"})
            if faults is not None:
                faults.attach_simulator(sim)
        elif faults is not None:
            raise WorkflowError(
                "per-workflow fault plans need a dedicated simulator; "
                "attach faults to the shared simulator instead"
            )
        self.sim = sim
        self.tracer = observer.tracer
        self.ledger = observer.ledger
        self._registry = metrics
        kernel = sim.kernel
        observer.bind_clock(lambda: kernel.now)
        if network is None:
            network = build_workflow_network(
                self.sim, config.spec, config.sim_cores, config.staging_cores
            )
        self.network = network
        if staging is None:
            self.staging = StagingArea(
                self.sim,
                self.network,
                core_rate=config.spec.core_rate,
                total_cores=config.staging_cores,
                active_cores=config.staging_cores,
                memory_bytes=config.spec.partition_memory(config.staging_cores),
                faults=faults,
                observer=observer,
            )
        else:
            self.staging = staging
        self._staging_resizer = staging_resizer
        self._staging_ceiling = staging_ceiling
        if faults is not None:
            faults.attach_network(self.network)
            faults.arm()
        if pfs is None:
            self.pfs = ParallelFileSystem(
                self.sim,
                self.network,
                write_bandwidth=config.spec.pfs_write_bandwidth,
                read_bandwidth=config.spec.pfs_read_bandwidth,
                latency=config.spec.pfs_latency,
            )
        else:
            # Shared storage injected by the service: all tenants' writes
            # and reads contend on the same PFS pipes, and the byte
            # accounting is fabric-wide rather than per tenant.
            self.pfs = pfs
        self.pfs.attach("sim")
        self.pfs.attach("staging")
        uplink = self.network.link_between("sim", "staging")
        self.monitor = Monitor(
            core_rate=config.spec.core_rate,
            network_bandwidth=uplink.bandwidth,
            network_latency=uplink.latency,
            interval=config.hints.monitor_interval,
            estimate_bias=config.estimator_bias,
            trigger=trigger,
            observer=observer,
        )
        # None selects the global plan; an empty set is a static mode,
        # which never consults an engine.
        layers = config.mode.adaptive_layers
        self.engine: AdaptationEngine | None = None
        if layers is None or layers:
            self.engine = AdaptationEngine(
                preferences=config.preferences,
                hints=config.hints,
                layers=layers,
                hybrid_placement=config.hybrid_placement,
                trigger=trigger,
                observer=observer,
            )
        # Each trace rank owns one core's share of memory; when the trace
        # has fewer ranks than cores, a rank stands for a core group.
        self.rank_memory_capacity = (
            config.spec.memory_per_core * config.sim_cores / trace.nranks
        )
        self._metrics: list[StepMetrics] = []
        self._outstanding: list[AnalysisJob] = []
        self._total_sim_seconds = 0.0
        self._post_tasks: list[tuple[StepMetrics, float, float]] = []
        self._post_busy_core_seconds = 0.0
        self._last_healthy = self.staging.healthy_cores
        self._fallbacks = 0
        self._main = None
        self._started_at = 0.0
        self._result: WorkflowResult | None = None
        instrument(profiler, self,
                   {"run": "workflow.run", "_decide": "workflow.decide"})
        instrument(profiler, self.monitor, {"snapshot": "monitor.snapshot",
                                            "evaluate_trigger": "monitor.trigger"})
        if self.engine is not None:
            instrument(profiler, self.engine, {"adapt": "engine.adapt"})
        instrument(profiler, self.staging, {"submit": "staging.submit",
                                            "_complete": "staging.drain"})

    # -- public API ---------------------------------------------------------

    def run(self) -> WorkflowResult:
        """Execute the whole trace; returns validated aggregate metrics."""
        self.sim.run(self.start())
        return self.finalize()

    def start(self):
        """Emit ``run.start`` and launch the simulation pipeline process.

        Returns the main :class:`~repro.hpc.event.Process`.  The direct
        path (:meth:`run`) drives the simulator itself; the multi-tenant
        service instead starts each admitted tenant on the shared
        simulator and calls :meth:`finalize` from a completion watcher
        that runs at exactly the moment this process finishes, so every
        time integral closes at the tenant's own end time.
        """
        if self._main is not None:
            raise WorkflowError("workflow already started")
        self._started_at = self.sim.now
        if self.tracer.enabled:
            self.tracer.emit(
                RUN_START,
                mode=self.config.mode.value,
                sim_cores=self.config.sim_cores,
                staging_cores=self.config.staging_cores,
                steps=len(self.trace),
                trace=self.trace.name,
            )
        self._main = self.sim.process(self._simulation(), name="simulation")
        return self._main

    def finalize(self) -> WorkflowResult:
        """Close the run out; returns validated aggregate metrics.

        Must be called with the simulator clock at the main process's
        completion time (true after :meth:`run`'s ``sim.run`` and inside
        the service's completion watcher).  Idempotent.  It stops the
        idle staging worker and drops ``staging_resizer`` and
        ``staging_ceiling``, so nothing the run built refers back to it
        and dropping the run frees it by reference counting.
        """
        if self._main is None:
            raise WorkflowError("workflow never started")
        if not self._main.triggered:
            raise WorkflowError("simulation pipeline still running")
        if self._result is not None:
            return self._result
        elapsed = self.sim.now - self._started_at
        publish(self._registry, self._tallies)
        if self.tracer.enabled:
            self.tracer.emit(
                RUN_END,
                end_to_end_seconds=elapsed,
                total_sim_seconds=self._total_sim_seconds,
                data_moved_bytes=self.staging.bytes_ingested,
            )
        energy, breakdown = self._energy(elapsed)
        result = WorkflowResult(
            mode=self.config.mode.value,
            steps=self._metrics,
            end_to_end_seconds=elapsed,
            total_sim_seconds=self._total_sim_seconds,
            data_moved_bytes=self.staging.bytes_ingested,
            utilization_efficiency=self.staging.utilization_efficiency(),
            staging_idle_core_seconds=self.staging.idle_time(),
            staging_total_cores=self.config.staging_cores,
            pfs_bytes_written=self.pfs.bytes_written,
            pfs_bytes_read=self.pfs.bytes_read,
            energy_joules=energy,
            energy_breakdown=breakdown,
        )
        result.validate()
        self._result = result
        self.staging.close()
        self._staging_resizer = self._staging_ceiling = None
        return result

    def _energy(self, elapsed: float) -> tuple[float, dict[str, float]]:
        """Energy model over the whole run (the paper's future-work topic).

        Cores draw ``core_power_active`` while computing and
        ``core_power_idle`` while allocated but idle; every byte through
        the fabric (staging ingest + PFS traffic) costs
        ``network_energy_per_byte``.  Under the multi-tenant service the
        ``data_movement`` term is fabric-wide (the network is shared
        infrastructure), not attributed per tenant.
        """
        spec = self.config.spec
        n = self.config.sim_cores
        sim_busy = n * (
            self._total_sim_seconds + sum(m.insitu_seconds for m in self._metrics)
        )
        sim_alloc = n * elapsed
        staging_busy = self.staging.busy_core_seconds() + self._post_busy_core_seconds
        staging_alloc = self.staging.allocated_core_seconds()
        breakdown = {
            "sim_compute": spec.core_power_active * sim_busy,
            "sim_idle": spec.core_power_idle * max(0.0, sim_alloc - sim_busy),
            "staging_compute": spec.core_power_active * staging_busy,
            "staging_idle": spec.core_power_idle
            * max(0.0, staging_alloc - staging_busy),
            "data_movement": spec.network_energy_per_byte
            * self.network.total_bytes_moved,
        }
        return sum(breakdown.values()), breakdown

    def _tallies(self) -> dict:
        """What the run's components counted, by metric name (read once,
        at :meth:`finalize`: a tenant of a shared simulator reads the
        kernel's total so far)."""
        monitor, staging, engine = self.monitor, self.staging, self.engine
        stall = 0.0
        for metric in self._metrics:
            stall += metric.block_seconds  # >= 0; a zero adds exactly 0
        service = EmaTimer()
        for job in staging.completed:
            service.observe(job.service_seconds)
        tallies = {
            "workflow.steps": len(self._metrics),
            "workflow.stall_seconds": stall,
            "kernel.events_processed": self.sim.kernel.counters.total_processed,
            "placement.fallbacks": self._fallbacks,
            "faults.injected": 0 if self.faults is None else self.faults.injected,
            "monitor.samples": len(monitor.history),
            "monitor.samples_taken": (
                0 if monitor.trigger is None else len(monitor.history)),
            "monitor.sim_step_seconds": monitor.sim_step_seconds,
            "monitor.insitu_observations": monitor.insitu_observations,
            "monitor.intransit_observations": monitor.intransit_observations,
            "monitor.transfer_observations": monitor.transfer_observations,
            "monitor.transfer_discards": monitor.transfer.discards,
            "monitor.trigger_fires": monitor.trigger_fires,
            "monitor.sampling_budget_used": monitor.sampling_budget_used,
            "engine.decisions": 0 if engine is None else len(engine.decisions),
            "staging.jobs_submitted": staging.jobs_submitted,
            "staging.bytes_ingested": staging.bytes_ingested,
            "staging.jobs_completed": len(staging.completed),
            "staging.retries": staging.retries,
            "staging.service_seconds": service,
        }
        # A gauge exists once it was set: by a resize, by a submission.
        if len(staging.core_history) > 1:
            tallies["staging.active_cores"] = Gauge(staging.active_cores)
        if staging.jobs_submitted:
            tallies["staging.memory_used"] = Gauge(staging.memory_used)
        return tallies

    # -- pipeline ------------------------------------------------------------

    def _simulation(self):
        cfg = self.config
        rate = cfg.spec.core_rate
        n_cores = cfg.sim_cores
        last_decision: AdaptationDecision | None = None

        total_steps = len(self.trace)
        for index, record in enumerate(self.trace):
            sim_seconds = record.sim_work / (rate * n_cores)
            if self.tracer.enabled:
                self.tracer.emit(
                    STEP_START,
                    step=record.step,
                    sim_seconds=sim_seconds,
                    cells=record.cells,
                    data_bytes=record.data_bytes,
                )
            yield self.sim.timeout(sim_seconds, kind=COMPUTE)
            self.monitor.observe_sim_step(sim_seconds)
            self._total_sim_seconds += sim_seconds

            analysis_work = (
                record.cells * cfg.analysis_cost_per_cell * record.analysis_intensity
            )
            peak_share = record.peak_rank_bytes / record.total_rank_bytes
            rank_out_bytes = record.data_bytes * peak_share
            rank_available = max(
                0.0, self.rank_memory_capacity - record.peak_rank_bytes
            )
            insitu_ok = (
                rank_available >= rank_out_bytes * cfg.insitu_memory_factor
            )

            indicators = None
            if self.trigger is not None:
                indicators = TriggerIndicators(
                    step=record.step,
                    sim_seconds=sim_seconds,
                    data_bytes=record.data_bytes,
                    rank_bytes=record.rank_bytes,
                    imbalance=record.imbalance,
                    staging_occupancy=(
                        self.staging.memory_used / self.staging.memory_total
                        if self.staging.memory_total > 0
                        else 0.0
                    ),
                    staging_queue_depth=self.staging.queue_depth,
                )
            decision = self._decide(
                record.step,
                record.data_bytes,
                rank_out_bytes,
                rank_available,
                analysis_work,
                insitu_ok,
                last_decision,
                steps_remaining=total_steps - (index + 1),
                indicators=indicators,
            )
            last_decision = decision

            factor = decision.factor or 1
            shrink = 1.0 / factor**self.trace.ndim
            out_bytes = record.data_bytes * shrink
            out_work = analysis_work * shrink

            insitu_seconds = 0.0
            if factor > 1:
                reduce_seconds = record.cells * cfg.reduce_cost_per_cell / (
                    rate * n_cores
                )
                yield self.sim.timeout(reduce_seconds, kind=COMPUTE)
                insitu_seconds += reduce_seconds

            if decision.staging_cores is not None:
                requested = min(decision.staging_cores, self.staging.total_cores)
                if self._staging_resizer is not None:
                    # Multi-tenant service: rightsizing negotiates with the
                    # shared pool instead of resizing the area directly.
                    self._staging_resizer(requested)
                else:
                    self.staging.set_active_cores(requested)
                if self.ledger.has_pending("staging_cores", record.step):
                    self.ledger.resolve(
                        "staging_cores", record.step,
                        float(self.staging.active_cores),
                    )

            placement = decision.placement or Placement.IN_TRANSIT
            if (
                self.faults is not None
                and placement in (Placement.IN_TRANSIT, Placement.HYBRID)
                and not self.staging.reachable
            ):
                # Recovery: staging has no healthy cores, so a staged
                # placement cannot execute.  Degrade to in-situ.
                self._fallbacks += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        PLACEMENT_FALLBACK,
                        step=record.step,
                        requested=placement.value,
                        placement=Placement.IN_SITU.value,
                        reason="staging unreachable",
                    )
                placement = Placement.IN_SITU
            metric = StepMetrics(
                step=record.step,
                sim_seconds=sim_seconds,
                factor=factor,
                placement=placement,
                staging_cores=self.staging.active_cores,
                data_bytes_full=record.data_bytes,
                data_bytes_out=out_bytes,
                insitu_seconds=insitu_seconds,
                block_seconds=0.0,
            )
            self._metrics.append(metric)

            if placement is Placement.HYBRID:
                fraction = decision.insitu_fraction
                insitu_work = out_work * fraction
                analysis_seconds = insitu_work / (rate * n_cores)
                if self.ledger.enabled and insitu_work > 0:
                    self.ledger.predict(
                        "insitu_time", record.step,
                        self.monitor.estimate_insitu(insitu_work, n_cores),
                        mechanism="monitor",
                    )
                yield self.sim.timeout(analysis_seconds, kind=COMPUTE)
                metric.insitu_seconds += analysis_seconds
                if insitu_work > 0:
                    self.monitor.observe_insitu(insitu_work, n_cores,
                                                analysis_seconds)
                    self.ledger.resolve(
                        "insitu_time", record.step, analysis_seconds
                    )
                yield from self._ship(
                    metric, out_bytes * (1.0 - fraction),
                    out_work * (1.0 - fraction),
                )
            elif placement is Placement.POST_PROCESS:
                # Traditional output: the collective write blocks the
                # simulation; analysis happens after the run ends.
                blocked_from = self.sim.now
                yield self.pfs.write("sim", out_bytes)
                metric.block_seconds = self.sim.now - blocked_from
                self._note_stall(metric, "pfs_write")
                self._post_tasks.append((metric, out_bytes, out_work))
            elif placement is Placement.IN_SITU:
                analysis_seconds = out_work / (rate * n_cores)
                if self.ledger.enabled:
                    self.ledger.predict(
                        "insitu_time", record.step,
                        self.monitor.estimate_insitu(out_work, n_cores),
                        mechanism="monitor",
                    )
                    self._record_placement(record.step, "in_situ", out_work)
                yield self.sim.timeout(analysis_seconds, kind=COMPUTE)
                metric.insitu_seconds += analysis_seconds
                metric.analysis_done_at = self.sim.now
                self.monitor.observe_insitu(out_work, n_cores, analysis_seconds)
                self.ledger.resolve("insitu_time", record.step, analysis_seconds)
                self.ledger.resolve_placement(
                    record.step, realized_insitu=analysis_seconds
                )
            else:
                if self.ledger.enabled:
                    self._record_placement(record.step, "in_transit", out_work)
                yield from self._ship(metric, out_bytes, out_work)

            if self.tracer.enabled:
                self.tracer.emit(
                    STEP_END,
                    step=record.step,
                    placement=placement.value,
                    factor=factor,
                    data_bytes_out=out_bytes,
                    insitu_seconds=metric.insitu_seconds,
                    block_seconds=metric.block_seconds,
                )
            if (
                self.trigger is not None
                and self.ledger.enabled
                and self.trigger.recalibrate_every
                and record.step % self.trigger.recalibrate_every == 0
            ):
                # Self-calibration: feed the ledger's measured estimator
                # bias and placement regret back into the trigger's
                # thresholds and the Monitor's estimate bias.
                self.monitor.recalibrate_trigger(
                    CalibrationFeedback.from_ledger(self.ledger, record.step)
                )

        # Drain: the run ends when the staging pipeline is empty too (Eq. 6).
        sim_pipeline_end = self.sim.now
        pending = [j.done for j in self._outstanding if not j.done.triggered]
        if pending:
            yield self.sim.all_of(pending)
        # Score placements now that every job's finish time is known; the
        # unhidden tail is measured against the simulation pipeline's own
        # end, not the drain's.
        self.ledger.finalize(sim_pipeline_end)

        # Post-processing phase: read everything back and analyse it on the
        # staging (analysis-cluster) cores, step by step.
        m_cores = self.staging.active_cores
        for metric, nbytes, work in self._post_tasks:
            yield self.pfs.read("staging", nbytes)
            analysis_seconds = work / (rate * m_cores)
            yield self.sim.timeout(analysis_seconds, kind=COMPUTE)
            self._post_busy_core_seconds += analysis_seconds * m_cores
            metric.analysis_done_at = self.sim.now

    def _ship(self, metric: StepMetrics, nbytes: float, work_units: float):
        """Ship a step's staged share: wait until staging memory fits
        ``nbytes`` (the stall is ``metric.block_seconds``), then submit
        the job.  Run with ``yield from`` inside the simulation process."""
        blocked_from = self.sim.kernel.now
        while not self.staging.can_fit(nbytes):
            pending = [j.done for j in self._outstanding if not j.done.triggered]
            if not pending:
                raise WorkflowError(
                    f"step {metric.step}: {nbytes:.0f} B exceed staging "
                    f"memory {self.staging.memory_total:.0f} B outright"
                )
            yield self.sim.any_of(pending)
        metric.block_seconds = self.sim.kernel.now - blocked_from
        self._note_stall(metric, "staging_memory")
        self._predict_shipment(metric.step, nbytes, work_units)
        job = self.staging.submit(metric.step, nbytes, work_units)
        self._outstanding.append(job)
        job.done.add_callback(lambda _evt: self._on_job_done(job, metric))

    def _decide(
        self,
        step: int,
        data_bytes: float,
        rank_out_bytes: float,
        rank_available: float,
        analysis_work: float,
        insitu_ok: bool,
        last: AdaptationDecision | None,
        steps_remaining: int,
        indicators: TriggerIndicators | None = None,
    ) -> AdaptationDecision:
        mode = self.config.mode
        if mode is Mode.POST_PROCESSING:
            return AdaptationDecision(step=step, placement=Placement.POST_PROCESS)
        if mode is Mode.STATIC_INSITU:
            return AdaptationDecision(step=step, placement=Placement.IN_SITU)
        if mode is Mode.STATIC_INTRANSIT:
            return AdaptationDecision(step=step, placement=Placement.IN_TRANSIT)
        assert self.engine is not None
        healthy = self.staging.healthy_cores
        if self.trigger is not None:
            due = self.monitor.evaluate_trigger(indicators).fire
        else:
            due = self.monitor.should_sample(step)
        if not due and last is not None and healthy == self._last_healthy:
            # Off-sample steps keep the previous adaptation settings --
            # unless a fault changed the healthy core count, which forces
            # the plan (Eqs. 9-10 sizing included) to re-run immediately.
            return AdaptationDecision(
                step=step,
                factor=last.factor,
                placement=last.placement,
                insitu_fraction=last.insitu_fraction,
                staging_cores=last.staging_cores,
            )
        if not due and healthy != self._last_healthy:
            # Forced off-interval re-sample (post-restore re-sizing):
            # restart the fixed cadence here instead of re-sampling again
            # on the next modulo hit.
            self.monitor.note_forced_sample(step)
        self._last_healthy = healthy
        state = self.monitor.snapshot(
            step=step,
            ndim=self.trace.ndim,
            data_bytes=data_bytes,
            rank_data_bytes=rank_out_bytes,
            rank_memory_available=rank_available,
            analysis_work=analysis_work,
            sim_cores=self.config.sim_cores,
            # The resource layer sizes against what is physically usable:
            # after a core loss this is the surviving pool (healthy ==
            # total on the fault-free path).
            staging_active_cores=min(self.staging.active_cores, max(1, healthy)),
            staging_total_cores=(
                max(1, healthy)
                if self._staging_ceiling is None
                else max(1, int(self._staging_ceiling()))
            ),
            staging_memory_total=self.staging.memory_total,
            staging_memory_used=self.staging.memory_used,
            staging_busy=self.staging.busy,
            est_intransit_remaining=self.staging.estimated_remaining_time(),
            insitu_memory_ok=insitu_ok,
            core_rate=self.config.spec.core_rate,
            steps_remaining=steps_remaining,
            staging_reachable=self.staging.reachable,
        )
        decision = self.engine.adapt(state)
        # Layers the mode leaves unset fall back to static defaults.
        if decision.placement is None and self.config.mode in (
            Mode.ADAPTIVE_APPLICATION,
            Mode.ADAPTIVE_RESOURCE,
        ):
            decision.placement = Placement.IN_TRANSIT
        return decision

    def _record_placement(
        self, step: int, chosen: str, work_units: float
    ) -> None:
        """Ledger a placement's estimated and simulator-true costs.

        Called at dispatch time (before any memory stall), so the
        backlog is what the decision actually faced.  The true
        components come from the simulator's own rates -- exact
        hindsight, not another estimate.
        """
        rate = self.config.spec.core_rate
        n_cores = self.config.sim_cores
        backlog = self.staging.estimated_remaining_time()
        self.ledger.record_placement(
            step,
            chosen,
            est_insitu=self.monitor.estimate_insitu(work_units, n_cores),
            est_intransit=backlog + self.monitor.estimate_intransit(
                work_units, self.staging.active_cores
            ),
            insitu_true=work_units / (rate * n_cores),
            backlog_true=backlog,
            service_true=self.staging.service_time(work_units),
            dispatched_at=self.sim.now,
        )

    def _predict_shipment(
        self, step: int, nbytes: float, work_units: float
    ) -> None:
        """Ledger the service/transfer estimates for a staged shipment."""
        if not self.ledger.enabled:
            return
        if work_units > 0:
            self.ledger.predict(
                "intransit_time", step,
                self.monitor.estimate_intransit(
                    work_units, self.staging.active_cores
                ),
                mechanism="monitor",
            )
        if nbytes > 0:
            self.ledger.predict(
                "transfer_time", step,
                self.monitor.estimate_send(nbytes),
                mechanism="monitor",
            )

    def _note_stall(self, metric: StepMetrics, cause: str) -> None:
        """Trace a simulation stall (no-op when nothing blocked)."""
        if metric.block_seconds > 0 and self.tracer.enabled:
            self.tracer.emit(
                SIM_STALL,
                step=metric.step,
                seconds=metric.block_seconds,
                cause=cause,
            )

    def _on_job_done(self, job: AnalysisJob, metric: StepMetrics) -> None:
        metric.analysis_done_at = job.finished_at
        duration = job.finished_at - job.started_at
        if duration > 0 and job.work_units > 0:
            self.monitor.observe_intransit(job.work_units, job.cores_used, duration)
            self.ledger.resolve("intransit_time", job.step, duration)
        transfer = job.ingest_done.value
        if transfer.elapsed and transfer.size > 0:
            self.monitor.observe_transfer(transfer.size, transfer.elapsed)
            self.ledger.resolve("transfer_time", job.step, transfer.elapsed)
        # No-op for hybrid steps (not recorded as scored placements).
        self.ledger.resolve_placement(
            job.step,
            block_seconds=metric.block_seconds,
            finished_at=job.finished_at,
        )


def run_workflow(
    config: WorkflowConfig,
    trace: WorkloadTrace,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    ledger: PredictionLedger | None = None,
    faults: FaultPlan | None = None,
    trigger: TriggerPolicy | None = None,
    profiler: Profiler | None = None,
) -> WorkflowResult:
    """Convenience: build and run a workflow in one call."""
    return CoupledWorkflow(
        config, trace, tracer=tracer, metrics=metrics, ledger=ledger,
        faults=faults, trigger=trigger, profiler=profiler,
    ).run()
