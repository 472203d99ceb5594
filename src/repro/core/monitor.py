"""The Monitor: runtime status capture across the three layers.

"The Monitor captures runtime status information at the different layers
(application, middleware, and resource) and uses it to characterize the
current operational state of the system and application."  Concretely it

- learns processing/transfer rates from completed work (EMA estimators,
  seeded from machine calibration -- the role Chombo's embedded
  performance tools play in the paper);
- tracks recent simulation step times for the T_{i+1}_sim estimate;
- assembles :class:`~repro.core.state.OperationalState` snapshots on its
  sampling interval ("periodically (e.g., after every specified number of
  simulation time steps) sampled").
"""

from __future__ import annotations

import math

from repro.core.estimators import RateEstimator, TransferEstimator
from repro.core.state import OperationalState
from repro.errors import PolicyError
from repro.observability.events import (
    MONITOR_SAMPLE,
    TRIGGER_FIRED,
    TRIGGER_RECALIBRATED,
    TRIGGER_SUPPRESSED,
)
from repro.observability.metrics import EmaTimer
from repro.observability.observer import NULL_OBSERVER, Observer

__all__ = ["Monitor"]


class Monitor:
    """Collects observations and produces operational-state snapshots.

    ``observer`` carries the observability hooks
    (:class:`~repro.observability.observer.Observer`): every snapshot
    emits a ``monitor.sample`` event, and each next-step-time forecast
    lands in the prediction ledger to be paired with the step duration
    actually observed.  The default observer's hooks are null objects
    that do nothing.  Its intake counts are plain attributes.

    ``trigger`` is an optional
    :class:`~repro.workflow.triggers.TriggerPolicy`: when injected, the
    host asks :meth:`evaluate_trigger` instead of the fixed
    :meth:`should_sample` cadence, trigger verdicts surface as
    ``trigger.fired``/``trigger.suppressed`` events, and
    :meth:`recalibrate_trigger` closes the self-calibration loop
    (threshold + estimator-bias adjustment from ledger feedback,
    emitted as ``trigger.recalibrated``).  Left ``None``, sampling is
    bit-identical to a build without the trigger subsystem.
    """

    def __init__(
        self,
        core_rate: float,
        network_bandwidth: float,
        network_latency: float = 0.0,
        interval: int = 1,
        estimate_bias: float = 1.0,
        trigger=None,
        observer: Observer = NULL_OBSERVER,
    ):
        if interval < 1:
            raise PolicyError(f"interval must be >= 1, got {interval}")
        if estimate_bias <= 0:
            raise PolicyError(f"estimate_bias must be positive, got {estimate_bias}")
        self.interval = int(interval)
        self.insitu_rate = RateEstimator(core_rate)
        self.intransit_rate = RateEstimator(core_rate)
        self.transfer = TransferEstimator(network_bandwidth, network_latency)
        #: EMA of recent step times, seeded by the first (T_{i+1}_sim).
        self.sim_step_seconds = EmaTimer(0.3)
        # Systematic misestimation injector for robustness studies: every
        # analysis-time estimate handed to the policies is multiplied by
        # this factor (1.0 = unbiased).
        self.estimate_bias = float(estimate_bias)
        self.tracer = observer.tracer
        self.ledger = observer.ledger
        self.trigger = trigger
        #: Calls of each ``observe_*`` (the estimators skip some), trigger
        #: fires and the per-rank probes the trigger spent.
        self.insitu_observations = 0
        self.intransit_observations = 0
        self.transfer_observations = 0
        self.trigger_fires = 0
        self.sampling_budget_used = 0
        # Step whose next-sim-time forecast is awaiting its realization.
        self._sim_pred_step: int | None = None
        # Most recent off-interval sample the host forced (fault recovery);
        # the fixed cadence restarts from it rather than double-sampling.
        self._forced_at: int | None = None
        #: Step of each snapshot taken, in order.
        self.history: list[int] = []

    # -- sampling cadence -----------------------------------------------------

    def should_sample(self, step: int) -> bool:
        """True when the adaptation engine should run at ``step``."""
        if step % self.interval != 0:
            return False
        if self._forced_at is not None and step - self._forced_at < self.interval:
            # A forced off-interval sample (post-restore re-sizing) already
            # refreshed the state inside this window; re-sampling on the
            # very next modulo hit would double-pay the snapshot.
            return False
        return True

    def note_forced_sample(self, step: int) -> None:
        """The host sampled off-interval (fault recovery); restart the
        cadence from ``step`` so the next modulo hit is not a duplicate."""
        self._forced_at = int(step)

    def evaluate_trigger(self, indicators):
        """Ask the injected trigger whether ``indicators`` warrant a full
        adaptation; emits the verdict and counts fires and budget."""
        decision = self.trigger.should_adapt(indicators)
        self.sampling_budget_used += decision.budget_spent
        if decision.fire:
            self.trigger_fires += 1
        if self.tracer.enabled:
            self.tracer.emit(
                TRIGGER_FIRED if decision.fire else TRIGGER_SUPPRESSED,
                step=indicators.step,
                policy=decision.policy,
                reason=decision.reason,
                value=decision.value,
                budget_spent=decision.budget_spent,
            )
        return decision

    def recalibrate_trigger(self, feedback) -> dict[str, tuple[float, float]]:
        """Close the self-calibration loop at ``feedback.step``.

        Feeds measured estimator bias/regret back into the trigger's
        thresholds (:meth:`TriggerPolicy.recalibrate`) and this
        Monitor's systematic ``estimate_bias`` correction; applied
        changes are returned and emitted as one ``trigger.recalibrated``
        event.  No-op (empty dict) when nothing needed adjusting.
        """
        changes: dict[str, tuple[float, float]] = {}
        if self.trigger is not None:
            changes.update(self.trigger.recalibrate(feedback) or {})
        adjusted = self._recalibrate_estimate_bias(feedback)
        if adjusted is not None:
            changes["estimate_bias"] = adjusted
        if not changes:
            return {}
        if self.tracer.enabled:
            fields = {}
            for key, (old, new) in sorted(changes.items()):
                fields[f"{key}_old"] = old
                fields[f"{key}_new"] = new
            self.tracer.emit(
                TRIGGER_RECALIBRATED,
                step=feedback.step,
                policy=getattr(self.trigger, "name", None),
                flip_fraction=feedback.flip_fraction,
                regret_seconds=feedback.regret_seconds,
                **fields,
            )
        return changes

    def _recalibrate_estimate_bias(self, feedback) -> tuple[float, float] | None:
        """Walk ``estimate_bias`` toward cancelling the measured bias.

        A positive ledger bias means the analysis-time estimators
        over-predict; half a multiplicative step toward the exact
        correction keeps the loop stable against noisy early feedback.
        """
        bias_pct = feedback.estimator_bias_pct("insitu_time", "intransit_time")
        if abs(bias_pct) < 2.0:
            return None
        fraction = min(9.0, max(-0.9, bias_pct / 100.0))
        correction = 1.0 / (1.0 + fraction)
        old = self.estimate_bias
        new = min(4.0, max(0.25, old * math.sqrt(correction)))
        if new == old:
            return None
        self.estimate_bias = new
        return (old, new)

    # -- observations ----------------------------------------------------------

    def observe_sim_step(self, seconds: float) -> None:
        """Record a completed simulation step's duration."""
        if seconds <= 0:
            raise PolicyError(f"step duration must be positive, got {seconds}")
        if self._sim_pred_step is not None:
            self.ledger.resolve("sim_step_time", self._sim_pred_step, seconds)
            self._sim_pred_step = None
        self.sim_step_seconds.observe(seconds)

    def observe_insitu(self, work_units: float, cores: int, seconds: float) -> None:
        """Record a completed in-situ analysis."""
        self.insitu_rate.observe(work_units, cores, seconds)
        self.insitu_observations += 1

    def observe_intransit(self, work_units: float, cores: int, seconds: float) -> None:
        """Record a completed in-transit analysis."""
        self.intransit_rate.observe(work_units, cores, seconds)
        self.intransit_observations += 1

    def observe_transfer(self, nbytes: float, seconds: float) -> None:
        """Record a completed staging transfer."""
        self.transfer.observe(nbytes, seconds)
        self.transfer_observations += 1

    # -- estimates -------------------------------------------------------------

    @property
    def expected_sim_step_time(self) -> float:
        """EMA of recent step times (T_{i+1}_sim); 0 before any observation."""
        return self.sim_step_seconds.value

    def estimate_insitu(self, work_units: float, cores: int) -> float:
        """T_insitu(N, S_data)."""
        return self.estimate_bias * self.insitu_rate.estimate(work_units, cores)

    def estimate_intransit(self, work_units: float, cores: int) -> float:
        """T_intransit(M, S_data)."""
        return self.estimate_bias * self.intransit_rate.estimate(work_units, cores)

    def estimate_send(self, nbytes: float) -> float:
        """T_sd(S_data)."""
        return self.transfer.estimate(nbytes)

    # -- snapshot assembly --------------------------------------------------------

    def snapshot(
        self,
        step: int,
        ndim: int,
        data_bytes: float,
        rank_data_bytes: float,
        rank_memory_available: float,
        analysis_work: float,
        sim_cores: int,
        staging_active_cores: int,
        staging_total_cores: int,
        staging_memory_total: float,
        staging_memory_used: float,
        staging_busy: bool,
        est_intransit_remaining: float,
        insitu_memory_ok: bool,
        core_rate: float,
        steps_remaining: int | None = None,
        staging_reachable: bool = True,
    ) -> OperationalState:
        """Build (and record) the operational state for ``step``."""
        intransit_memory_ok = (
            staging_memory_used + data_bytes
            <= staging_memory_total * (1 + 1e-9)
        )
        state = OperationalState._from_fields({
            "step": step,
            "ndim": ndim,
            "core_rate": core_rate,
            "data_bytes": data_bytes,
            "rank_data_bytes": rank_data_bytes,
            "rank_memory_available": rank_memory_available,
            "analysis_work": analysis_work,
            "sim_cores": sim_cores,
            "staging_active_cores": staging_active_cores,
            "est_insitu_time": self.estimate_insitu(analysis_work, sim_cores),
            "est_intransit_time": self.estimate_intransit(
                analysis_work, staging_active_cores
            ),
            "est_intransit_remaining": est_intransit_remaining,
            "staging_busy": staging_busy,
            "insitu_memory_ok": insitu_memory_ok,
            "intransit_memory_ok": intransit_memory_ok,
            "staging_total_cores": staging_total_cores,
            "staging_memory_total": staging_memory_total,
            "staging_memory_used": staging_memory_used,
            "est_next_sim_time": self.expected_sim_step_time,
            "est_send_time": self.estimate_send(data_bytes),
            "est_remaining_sim_time": (
                float("inf")
                if steps_remaining is None
                else steps_remaining * self.expected_sim_step_time
            ),
            "staging_reachable": staging_reachable,
        })
        self.history.append(step)
        if state.est_next_sim_time > 0 and self._sim_pred_step is None:
            # Forecast the *next* step's duration; the next observed
            # step resolves it.  An unresolved older forecast
            # (off-sample gap) stays pending rather than being paired
            # with the wrong step.
            self.ledger.predict(
                "sim_step_time", step, state.est_next_sim_time,
                mechanism="monitor",
            )
            self._sim_pred_step = step
        if self.tracer.enabled:
            self.tracer.emit(
                MONITOR_SAMPLE,
                step=step,
                data_bytes=data_bytes,
                analysis_work=analysis_work,
                staging_active_cores=staging_active_cores,
                staging_busy=staging_busy,
                est_insitu_time=state.est_insitu_time,
                est_intransit_time=state.est_intransit_time,
                est_intransit_remaining=est_intransit_remaining,
                est_next_sim_time=state.est_next_sim_time,
                est_send_time=state.est_send_time,
                insitu_memory_ok=insitu_memory_ok,
                intransit_memory_ok=intransit_memory_ok,
            )
        return state
