"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live simulation.

The injector is the only piece of the fault subsystem that touches
runtime objects.  Components accept ``faults=None`` and every query the
hot path makes (:meth:`FaultInjector.may_drop`,
:meth:`FaultInjector.service_multiplier`, ...) is guarded by an
``is not None`` test at the call site, so a run without an injector
executes byte-identical code.  Faults are behaviour, not observation:
unlike the observability hooks they have no null object.

Lifecycle::

    injector = FaultInjector(plan, observer=Observer(tracer))
    injector.attach_simulator(sim)
    area = StagingArea(..., faults=injector)  # attach_staging
    injector.attach_network(net)
    injector.arm()                            # schedules the timed faults

:class:`~repro.workflow.driver.CoupledWorkflow` performs all four steps
when given a plan as ``faults=``.  Timed faults fire at their planned simulated
times; per-step faults (drops/corruptions) are consumed when the staging
area touches that step.  Every application emits a ``fault.injected``
trace event and bumps :attr:`FaultInjector.injected` (the run publishes
it as ``faults.injected``); windowed faults additionally emit
``fault.cleared`` when they end.
"""

from __future__ import annotations

from repro.errors import FaultError, SimulationError
from repro.faults.plan import (
    CoreLoss,
    CoreRestore,
    FaultPlan,
    LinkDegrade,
    ObjectCorrupt,
    ObjectDrop,
    Straggler,
)
from repro.observability.events import FAULT_CLEARED, FAULT_INJECTED
from repro.observability.observer import NULL_OBSERVER, Observer

__all__ = ["FaultInjector"]


class _DegradedLink:
    """Exact-restore bookkeeping for one link under degrade windows.

    The link's pristine bandwidth/latency are recorded when the first
    window opens and written back verbatim when the last one closes, so
    overlapping windows compose multiplicatively without accumulating
    float drift.
    """

    __slots__ = ("base_bandwidth", "base_latency", "factors")

    def __init__(self, base_bandwidth: float, base_latency: float):
        self.base_bandwidth = base_bandwidth
        self.base_latency = base_latency
        self.factors: list[tuple[float, float]] = []

    def current(self) -> tuple[float, float]:
        bandwidth, latency = self.base_bandwidth, self.base_latency
        for bw_factor, lat_factor in self.factors:
            bandwidth *= bw_factor
            latency *= lat_factor
        return bandwidth, latency


class FaultInjector:
    """Schedules and serves one :class:`FaultPlan` against a live run."""

    def __init__(self, plan: FaultPlan, observer: Observer = NULL_OBSERVER):
        if not isinstance(plan, FaultPlan):
            raise FaultError(f"FaultInjector needs a FaultPlan, got {plan!r}")
        self.plan = plan
        self.tracer = observer.tracer
        self.sim = None
        self.network = None
        self.staging = None
        self.injected = 0
        self._armed = False
        self._drops = plan.drops_by_step()
        self._corrupts = plan.corrupts_by_step()
        self._stragglers = tuple(
            f for f in plan.timed() if isinstance(f, Straggler)
        )
        self._degraded: dict[object, _DegradedLink] = {}

    # -- wiring ------------------------------------------------------------

    def attach_simulator(self, sim) -> None:
        """Bind the simulator whose clock the timed faults ride."""
        self.sim = sim

    def attach_network(self, network) -> None:
        """Bind the interconnect whose links degrade windows will scale."""
        self.network = network

    def attach_staging(self, staging) -> None:
        """Bind the staging area (called by ``StagingArea(faults=...)``)."""
        self.staging = staging

    def arm(self) -> None:
        """Validate the wiring and schedule every timed fault.

        Raises :class:`FaultError` if a fault in the plan targets a
        component that was never attached or a link the network lacks,
        or if called twice.  Nothing is scheduled when it raises.
        """
        if self._armed:
            raise FaultError("fault injector already armed")
        timed = self.plan.timed()
        if (timed or self._drops or self._corrupts) and self.sim is None:
            raise FaultError("fault plan needs a simulator: call "
                            "injector.attach_simulator(sim)")
        needs_staging = bool(
            self._drops
            or self._corrupts
            or any(isinstance(f, (CoreLoss, CoreRestore, Straggler)) for f in timed)
        )
        if needs_staging and self.staging is None:
            raise FaultError("fault plan targets staging but no StagingArea "
                            "was attached (pass StagingArea(..., faults=injector))")
        degrades = [f for f in timed if isinstance(f, LinkDegrade)]
        if degrades and self.network is None:
            raise FaultError("fault plan degrades links but no Network was "
                            "attached (call injector.attach_network(net))")
        for fault in degrades:
            try:
                self.network.link_between(fault.src, fault.dst)
            except SimulationError:
                raise FaultError(
                    f"{fault.kind} at t={fault.at}: no link between "
                    f"{fault.src!r} and {fault.dst!r}"
                ) from None
        self._armed = True
        for fault in timed:
            if isinstance(fault, CoreLoss):
                self.sim._schedule_at(fault.at, self._apply_core_loss, fault)
            elif isinstance(fault, CoreRestore):
                self.sim._schedule_at(fault.at, self._apply_core_restore, fault)
            elif isinstance(fault, LinkDegrade):
                self.sim._schedule_at(fault.at, self._open_degrade, fault)
                self.sim._schedule_at(
                    fault.at + fault.duration, self._close_degrade, fault
                )
            elif isinstance(fault, Straggler):
                self.sim._schedule_at(fault.at, self._open_straggler, fault)
                self.sim._schedule_at(
                    fault.at + fault.duration, self._close_straggler, fault
                )

    # -- emission helpers --------------------------------------------------

    def _record_injection(self, kind: str, **fields) -> None:
        self.injected += 1
        self.tracer.emit(FAULT_INJECTED, fault=kind, **fields)

    def _record_clear(self, kind: str, **fields) -> None:
        self.tracer.emit(FAULT_CLEARED, fault=kind, **fields)

    # -- timed fault callbacks ---------------------------------------------

    def _apply_core_loss(self, fault: CoreLoss) -> None:
        killed = self.staging.fail_cores(fault.cores)
        self._record_injection(
            fault.kind,
            cores=killed,
            healthy=self.staging.healthy_cores,
            reachable=self.staging.reachable,
        )

    def _apply_core_restore(self, fault: CoreRestore) -> None:
        revived = self.staging.restore_cores(fault.cores)
        self._record_injection(
            fault.kind,
            cores=revived,
            healthy=self.staging.healthy_cores,
            reachable=self.staging.reachable,
        )

    def _open_degrade(self, fault: LinkDegrade) -> None:
        link = self.network.link_between(fault.src, fault.dst)
        state = self._degraded.get(link)
        if state is None:
            state = _DegradedLink(link.bandwidth, link.latency)
            self._degraded[link] = state
        state.factors.append((fault.bandwidth_factor, fault.latency_factor))
        bandwidth, latency = state.current()
        self.network.update_link(fault.src, fault.dst, bandwidth, latency)
        self._record_injection(
            fault.kind,
            src=fault.src,
            dst=fault.dst,
            bandwidth_factor=fault.bandwidth_factor,
            latency_factor=fault.latency_factor,
            until=fault.at + fault.duration,
        )

    def _close_degrade(self, fault: LinkDegrade) -> None:
        link = self.network.link_between(fault.src, fault.dst)
        state = self._degraded[link]
        state.factors.remove((fault.bandwidth_factor, fault.latency_factor))
        if state.factors:
            bandwidth, latency = state.current()
        else:
            bandwidth, latency = state.base_bandwidth, state.base_latency
            del self._degraded[link]
        self.network.update_link(fault.src, fault.dst, bandwidth, latency)
        self._record_clear(fault.kind, src=fault.src, dst=fault.dst)

    def _open_straggler(self, fault: Straggler) -> None:
        self._record_injection(
            fault.kind, factor=fault.factor, until=fault.at + fault.duration
        )

    def _close_straggler(self, fault: Straggler) -> None:
        self._record_clear(fault.kind, factor=fault.factor)

    # -- hot-path queries (guarded by `faults is not None` at call sites) ----

    def service_multiplier(self, now: float) -> float:
        """Product of straggler factors whose window contains ``now``.

        Sampled once at service start: a job starting inside a window
        runs slower end to end, a job starting outside is unaffected.
        """
        factor = 1.0
        for straggler in self._stragglers:
            if straggler.at <= now < straggler.at + straggler.duration:
                factor *= straggler.factor
        return factor

    def may_drop(self, step: int) -> bool:
        """True if the plan still holds in-flight corruptions for ``step``."""
        return self._drops.get(step, 0) > 0

    def consume_drop(self, step: int) -> bool:
        """Consume one planned in-flight corruption for ``step``, if any."""
        remaining = self._drops.get(step, 0)
        if remaining <= 0:
            return False
        self._drops[step] = remaining - 1
        self._record_injection(ObjectDrop.kind, step=step)
        return True

    def consume_corrupt(self, step: int) -> bool:
        """Consume one planned at-rest corruption for ``step``, if any."""
        remaining = self._corrupts.get(step, 0)
        if remaining <= 0:
            return False
        self._corrupts[step] = remaining - 1
        self._record_injection(ObjectCorrupt.kind, step=step)
        return True
