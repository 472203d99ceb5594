"""Trigger-detection adaptation policies with online self-calibration.

The paper's Monitor samples the operational state every ``k`` steps
(:class:`~repro.core.monitor.Monitor`'s interval), paying the full
snapshot cost whether or not anything changed.  The Sandia
trigger-detection papers (percentile-sampling trigger detection,
arXiv:1506.08258 and arXiv:1508.04731) show the alternative: watch a
*cheap streaming indicator*, estimate a percentile of its distribution
from a bounded random sample, and run the expensive machinery only when
the indicator says "now is the moment to adapt".  The key sampling
result is population-size independent: the ``p``-th percentile of an
indicator population can be estimated to within ``±eps`` (as a fraction
of the population) with confidence ``1 - delta`` from

    s  =  ceil( ln(2/delta) / (2 * eps^2) )

samples (:func:`percentile_sample_size`) -- 185 probes for
``eps=0.1, delta=0.05`` whether the simulation runs on 1 024 ranks or a
million.

This module provides that trigger family behind one protocol:

- :class:`TriggerPolicy` -- ``should_adapt(indicators) ->``
  :class:`TriggerDecision`, plus ``note_adapted`` (reference reset after
  an adaptation actually ran) and ``recalibrate`` (closed-loop threshold
  adjustment from measured estimator bias/regret);
- :class:`FixedInterval` -- the paper's every-``k``-steps baseline,
  expressed as a trigger;
- :class:`EntropyPercentile` -- percentile sampling over the per-rank
  output-volume distribution (the streaming stand-in for Chombo's
  per-block entropy), with the bounded budget above;
- :class:`Imbalance` -- per-rank compute/data skew (max/mean);
- :class:`StagingPressure` -- staging-area memory occupancy and queue
  depth, edge-triggered;
- :class:`CalibrationFeedback` -- the self-calibration input, built from
  a :class:`~repro.observability.ledger.PredictionLedger`'s measured
  estimator bias and counterfactual placement regret.

The hook is injected (``CoupledWorkflow(..., trigger=...)``) and follows
the observability discipline: with ``trigger=None`` every output is
bit-identical to a build without this module.  See ``docs/triggers.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.errors import PolicyError
from repro.observability.calibration import calibrate, placement_regret
from repro.observability.ledger import PredictionLedger

__all__ = [
    "CalibrationFeedback",
    "EntropyPercentile",
    "FixedInterval",
    "Imbalance",
    "StagingPressure",
    "TRIGGER_POLICIES",
    "TriggerDecision",
    "TriggerIndicators",
    "TriggerPolicy",
    "build_trigger",
    "percentile_sample_size",
]


def percentile_sample_size(eps: float = 0.1, delta: float = 0.05) -> int:
    """Samples needed to estimate any percentile within ``±eps`` at
    confidence ``1 - delta`` (Hoeffding bound; population-independent).

    The percentile-sampling papers' central result: ``s = ceil(ln(2/delta)
    / (2 eps^2))``.  The defaults give 185 -- the budget a trigger pays
    per step instead of a full ``nranks``-wide snapshot.
    """
    if not 0.0 < eps < 1.0:
        raise PolicyError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise PolicyError(f"delta must be in (0, 1), got {delta}")
    return int(math.ceil(math.log(2.0 / delta) / (2.0 * eps * eps)))


@dataclass(frozen=True, eq=False)
class TriggerIndicators:
    """The cheap streaming indicators a trigger decides on, one per step.

    Everything here is already in the driver's hands when the step's
    data lands -- no extra collection happens to build it.  Policies
    that probe ``rank_bytes`` account for what they touched via
    :attr:`TriggerDecision.budget_spent`.
    """

    step: int
    sim_seconds: float
    data_bytes: float
    rank_bytes: np.ndarray  # per-rank output volume (len = nranks)
    imbalance: float  # max/mean of rank_bytes (compute-skew proxy)
    staging_occupancy: float  # staging memory_used / memory_total
    staging_queue_depth: int  # jobs waiting behind the one in service


@dataclass(frozen=True)
class TriggerDecision:
    """One trigger evaluation's verdict (fire = run the full adaptation)."""

    fire: bool
    step: int
    policy: str
    reason: str
    value: float = 0.0  # the indicator value the verdict was based on
    budget_spent: int = 0  # rank probes consumed by this evaluation


@dataclass(frozen=True)
class CalibrationFeedback:
    """Measured truth the self-calibration loop feeds back into triggers.

    Built on a cadence (``recalibrate_every``) from the run's own
    :class:`~repro.observability.ledger.PredictionLedger`: per-quantity
    signed estimator bias / MAPE (:func:`~repro.observability.calibrate`)
    and the counterfactual placement regret scored so far
    (:func:`~repro.observability.placement_regret`).
    """

    step: int
    bias_pct: Mapping[str, float]  # per-quantity mean signed bias (%)
    mape_pct: Mapping[str, float]  # per-quantity mean absolute error (%)
    regret_seconds: float  # summed Eq.-6 seconds lost to wrong placements
    flip_fraction: float  # share of scored placements hindsight flips
    scored: int  # placements with both costs resolved so far

    @classmethod
    def from_ledger(cls, ledger: PredictionLedger, step: int) -> "CalibrationFeedback":
        """Snapshot the ledger's calibration state at ``step``."""
        stats = calibrate(ledger)
        regret = placement_regret(ledger)
        return cls(
            step=step,
            bias_pct={q: s.bias_pct for q, s in stats.items()},
            mape_pct={q: s.mape_pct for q, s in stats.items()},
            regret_seconds=regret.total_regret_seconds,
            flip_fraction=regret.flip_fraction,
            scored=regret.scored,
        )

    def estimator_bias_pct(self, *quantities: str) -> float:
        """Mean signed bias over ``quantities`` the ledger has seen."""
        seen = [self.bias_pct[q] for q in quantities if q in self.bias_pct]
        return sum(seen) / len(seen) if seen else 0.0


class TriggerPolicy:
    """Base trigger: subclasses implement :meth:`should_adapt`.

    ``recalibrate_every`` is the self-calibration cadence in steps (0 =
    off): every that-many steps the driver hands the policy a
    :class:`CalibrationFeedback` via :meth:`recalibrate`, which returns
    the ``{attribute: (old, new)}`` threshold changes it applied (or
    ``None``); the Monitor emits them as a ``trigger.recalibrated``
    event.  ``note_adapted`` is called after an adaptation actually ran
    (fired, bootstrap, or fault-forced) so policies can reset their
    change references.
    """

    name = "?"

    def __init__(self, recalibrate_every: int = 0):
        if recalibrate_every < 0:
            raise PolicyError(
                f"recalibrate_every must be >= 0, got {recalibrate_every}"
            )
        self.recalibrate_every = int(recalibrate_every)

    def should_adapt(self, indicators: TriggerIndicators) -> TriggerDecision:
        """Decide whether ``indicators`` warrant a full adaptation."""
        raise NotImplementedError

    def note_adapted(self, step: int, decision) -> None:
        """An adaptation ran at ``step``; reset change references."""

    def recalibrate(
        self, feedback: CalibrationFeedback
    ) -> dict[str, tuple[float, float]] | None:
        """Adjust thresholds from measured bias/regret; report changes."""
        return None

    # -- helpers for subclasses ----------------------------------------------

    def _verdict(
        self,
        indicators: TriggerIndicators,
        fire: bool,
        reason: str,
        value: float = 0.0,
        budget: int = 0,
    ) -> TriggerDecision:
        return TriggerDecision(
            fire=fire,
            step=indicators.step,
            policy=self.name,
            reason=reason,
            value=value,
            budget_spent=budget,
        )

    def _nudge(
        self, attr: str, factor: float, lo: float, hi: float
    ) -> tuple[float, float] | None:
        """Scale ``attr`` by ``factor`` within ``[lo, hi]``; report change."""
        old = getattr(self, attr)
        new = min(hi, max(lo, old * factor))
        if new == old:
            return None
        setattr(self, attr, new)
        return (old, new)


class FixedInterval(TriggerPolicy):
    """The paper's baseline, as a trigger: fire every ``interval`` steps.

    Equivalent to running without a trigger at
    ``UserHints.monitor_interval = interval``; exists so sweeps compare
    detection policies against the fixed cadence under one protocol.
    """

    name = "fixed-interval"

    def __init__(self, interval: int = 1, recalibrate_every: int = 0):
        super().__init__(recalibrate_every=recalibrate_every)
        if interval < 1:
            raise PolicyError(f"interval must be >= 1, got {interval}")
        self.interval = int(interval)

    def should_adapt(self, indicators: TriggerIndicators) -> TriggerDecision:
        fire = indicators.step % self.interval == 0
        reason = (
            f"step {indicators.step} on the {self.interval}-step cadence"
            if fire
            else f"step {indicators.step} off the {self.interval}-step cadence"
        )
        return self._verdict(indicators, fire, reason,
                             value=float(indicators.step % self.interval))


class EntropyPercentile(TriggerPolicy):
    """Percentile sampling over the per-rank output-volume distribution.

    Per step, draw ``s = percentile_sample_size(eps, delta)`` ranks
    (seeded, without replacement), take the ``percentile``-th percentile
    of their output volumes -- the streaming stand-in for per-block
    entropy -- and fire when it drifted by more than ``threshold``
    (relative) from the value at the last adaptation.  The budget is the
    papers' bound: independent of rank count, so the per-step cost stays
    ``s`` probes instead of a full ``nranks``-wide snapshot.

    ``max_interval`` bounds staleness (0 = unbounded): if that many
    steps pass without any adaptation, the trigger fires regardless of
    drift -- the papers' guard against an indicator that goes quiet
    exactly when the regime shifts.

    ``recalibrate`` closes the loop: a high hindsight flip fraction
    means stale decisions are costing real seconds, so the threshold
    tightens (more eager); zero flips with well-calibrated estimators
    loosens it (cheaper).
    """

    name = "entropy-percentile"

    def __init__(
        self,
        percentile: float = 90.0,
        threshold: float = 0.12,
        eps: float = 0.15,
        delta: float = 0.05,
        min_interval: int = 1,
        max_interval: int = 6,
        seed: int = 0,
        recalibrate_every: int = 0,
    ):
        super().__init__(recalibrate_every=recalibrate_every)
        if not 0.0 < percentile < 100.0:
            raise PolicyError(f"percentile must be in (0, 100), got {percentile}")
        if threshold <= 0:
            raise PolicyError(f"threshold must be positive, got {threshold}")
        if min_interval < 1:
            raise PolicyError(f"min_interval must be >= 1, got {min_interval}")
        if max_interval < 0:
            raise PolicyError(f"max_interval must be >= 0, got {max_interval}")
        if max_interval and max_interval < min_interval:
            raise PolicyError(
                f"max_interval {max_interval} must be >= min_interval "
                f"{min_interval}"
            )
        self.percentile = float(percentile)
        self.threshold = float(threshold)
        self.sample_size = percentile_sample_size(eps, delta)
        self.min_interval = int(min_interval)
        self.max_interval = int(max_interval)
        self.seed = int(seed)
        self._reference: float | None = None
        self._last_value: float | None = None
        self._last_adapted: int | None = None

    def _sample_percentile(self, indicators: TriggerIndicators) -> tuple[float, int]:
        ranks = indicators.rank_bytes
        budget = min(int(ranks.size), self.sample_size)
        if budget == ranks.size:
            sample = ranks
        else:
            # Seeded per step (not per call) so replays are bit-identical
            # regardless of how many times the step is evaluated.
            rng = np.random.default_rng(self.seed * 1_000_003 + indicators.step)
            sample = ranks[rng.choice(ranks.size, size=budget, replace=False)]
        return float(np.percentile(sample, self.percentile)), budget

    def should_adapt(self, indicators: TriggerIndicators) -> TriggerDecision:
        value, budget = self._sample_percentile(indicators)
        self._last_value = value
        if self._reference is None:
            return self._verdict(
                indicators, True, "no reference yet", value=value, budget=budget
            )
        if (
            self._last_adapted is not None
            and indicators.step - self._last_adapted < self.min_interval
        ):
            return self._verdict(
                indicators, False,
                f"within min-interval {self.min_interval}",
                value=value, budget=budget,
            )
        if self._reference > 0:
            drift = abs(value - self._reference) / self._reference
        else:
            drift = math.inf if value > 0 else 0.0
        fire = drift >= self.threshold
        reason = (
            f"p{self.percentile:g} drifted {drift * 100.0:.1f}% "
            f"{'≥' if fire else '<'} {self.threshold * 100.0:.1f}%"
        )
        if (
            not fire
            and self.max_interval
            and self._last_adapted is not None
            and indicators.step - self._last_adapted >= self.max_interval
        ):
            fire = True
            reason = (
                f"staleness bound: no adaptation for {self.max_interval} steps"
            )
        return self._verdict(indicators, fire, reason, value=value, budget=budget)

    def note_adapted(self, step: int, decision) -> None:
        if self._last_value is not None:
            self._reference = self._last_value
        self._last_adapted = step

    def recalibrate(self, feedback):
        if feedback.flip_fraction > 0.10:
            change = self._nudge("threshold", 0.8, 0.05, 0.60)
        elif (
            feedback.scored > 0
            and feedback.flip_fraction == 0.0
            and abs(feedback.estimator_bias_pct("insitu_time", "intransit_time"))
            < 10.0
        ):
            change = self._nudge("threshold", 1.1, 0.05, 0.60)
        else:
            change = None
        return {"threshold": change} if change else None


class Imbalance(TriggerPolicy):
    """Per-rank skew trigger: fire when max/mean load crosses or drifts.

    The indicator (``rank_bytes.max() / rank_bytes.mean()``) is already
    computed by the driver for its memory-feasibility check, so this
    policy spends zero sampling budget.  Fires when the skew crosses
    ``threshold`` in either direction, or drifts by more than ``drift``
    (relative) from the value at the last adaptation.
    """

    name = "imbalance"

    def __init__(
        self,
        threshold: float = 1.5,
        drift: float = 0.25,
        recalibrate_every: int = 0,
    ):
        super().__init__(recalibrate_every=recalibrate_every)
        if threshold < 1.0:
            raise PolicyError(f"threshold must be >= 1 (max/mean), got {threshold}")
        if drift <= 0:
            raise PolicyError(f"drift must be positive, got {drift}")
        self.threshold = float(threshold)
        self.drift = float(drift)
        self._reference: float | None = None
        self._last_value: float | None = None

    def should_adapt(self, indicators: TriggerIndicators) -> TriggerDecision:
        value = float(indicators.imbalance)
        self._last_value = value
        if self._reference is None:
            return self._verdict(indicators, True, "no reference yet", value=value)
        crossed = (value >= self.threshold) != (self._reference >= self.threshold)
        rel = (
            abs(value - self._reference) / self._reference
            if self._reference > 0
            else math.inf
        )
        fire = crossed or rel >= self.drift
        if crossed:
            reason = f"skew crossed threshold {self.threshold:g}"
        else:
            reason = (
                f"skew drifted {rel * 100.0:.1f}% "
                f"{'≥' if fire else '<'} {self.drift * 100.0:.1f}%"
            )
        return self._verdict(indicators, fire, reason, value=value)

    def note_adapted(self, step: int, decision) -> None:
        if self._last_value is not None:
            self._reference = self._last_value

    def recalibrate(self, feedback):
        if feedback.flip_fraction > 0.10:
            change = self._nudge("drift", 0.8, 0.05, 1.0)
        elif feedback.scored > 0 and feedback.flip_fraction == 0.0:
            change = self._nudge("drift", 1.1, 0.05, 1.0)
        else:
            change = None
        return {"drift": change} if change else None


class StagingPressure(TriggerPolicy):
    """Staging occupancy/queue-depth trigger, edge-triggered.

    Fires when the staging area *becomes* pressured (memory occupancy
    reaches ``occupancy`` or the queue reaches ``queue_depth`` jobs) and
    again when the pressure releases, so the engine both reacts to a
    filling substrate and relaxes once it drains.  Zero sampling budget:
    both indicators are staging-area bookkeeping the driver already has.
    """

    name = "staging-pressure"

    def __init__(
        self,
        occupancy: float = 0.75,
        queue_depth: int = 4,
        recalibrate_every: int = 0,
    ):
        super().__init__(recalibrate_every=recalibrate_every)
        if not 0.0 < occupancy <= 1.0:
            raise PolicyError(f"occupancy must be in (0, 1], got {occupancy}")
        if queue_depth < 1:
            raise PolicyError(f"queue_depth must be >= 1, got {queue_depth}")
        self.occupancy = float(occupancy)
        self.queue_depth = int(queue_depth)
        self._last_pressured: bool | None = None

    def should_adapt(self, indicators: TriggerIndicators) -> TriggerDecision:
        pressured = (
            indicators.staging_occupancy >= self.occupancy
            or indicators.staging_queue_depth >= self.queue_depth
        )
        fire = self._last_pressured is None or pressured != self._last_pressured
        self._last_pressured = pressured
        if fire and pressured:
            reason = (
                f"staging pressured (occupancy "
                f"{indicators.staging_occupancy * 100.0:.0f}%, queue "
                f"{indicators.staging_queue_depth})"
            )
        elif fire:
            reason = "staging pressure released"
        else:
            reason = "pressure state unchanged"
        return self._verdict(
            indicators, fire, reason, value=float(indicators.staging_occupancy)
        )

    def recalibrate(self, feedback):
        if feedback.flip_fraction > 0.10:
            change = self._nudge("occupancy", 0.9, 0.30, 0.95)
        elif feedback.scored > 0 and feedback.flip_fraction == 0.0:
            change = self._nudge("occupancy", 1.05, 0.30, 0.95)
        else:
            change = None
        return {"occupancy": change} if change else None


#: The closed trigger-policy registry: name -> (description, factory).
#: ``docs/triggers.md`` catalogs each; the docs-consistency suite keeps
#: the two in sync (like ``SCENARIOS`` and ``FAULT_KINDS``).
TRIGGER_POLICIES: dict[str, tuple[str, Callable[..., TriggerPolicy]]] = {
    FixedInterval.name: (
        "the paper's every-k-steps cadence, as a trigger (baseline)",
        FixedInterval,
    ),
    EntropyPercentile.name: (
        "percentile sampling over per-rank output volumes with a "
        "bounded, rank-count-independent budget",
        EntropyPercentile,
    ),
    Imbalance.name: (
        "per-rank compute/data skew (max/mean) crossing or drifting",
        Imbalance,
    ),
    StagingPressure.name: (
        "staging memory occupancy / queue depth, edge-triggered",
        StagingPressure,
    ),
}


def build_trigger(name: str, **kwargs) -> TriggerPolicy:
    """Instantiate a registered trigger policy by name."""
    entry = TRIGGER_POLICIES.get(name)
    if entry is None:
        known = ", ".join(sorted(TRIGGER_POLICIES))
        raise PolicyError(f"unknown trigger policy {name!r} (known: {known})")
    return entry[1](**kwargs)
