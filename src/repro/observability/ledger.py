"""The prediction ledger: every estimate, paired with what really happened.

The policies decide on *estimated* costs (Eqs. 4-10: ``T_insitu``,
``T_intransit``, ``T_sd``, staging memory demand, the chosen ``M``); the
event simulator later delivers the realized values.  The tracer records
the decisions -- the ledger records whether the numbers under them were
any good.  Each estimate becomes a :class:`PredictionRecord` keyed by
``(quantity, step)`` and carrying the mechanism that produced it; when
the realized value arrives the record is resolved in place, so the full
prediction-error history of every estimator is available for the
calibration report (:mod:`repro.observability.calibration`).

The ledger also keeps one :class:`PlacementOutcome` per scored placement
decision: the middleware layer's estimated in-situ vs in-transit costs
at dispatch, the exact (simulator-true) counterfactual costs, and the
realized cost of the chosen path.  :meth:`PredictionLedger.finalize`
turns these into per-step counterfactual regret -- how many decisions
Eq. 8 got wrong, and what the wrong calls cost.

Components reach the ledger through their
:class:`~repro.observability.observer.Observer`, whose null ledger
accepts every call and records nothing; the ledger itself only *reads*
runtime state, so an instrumented run is bit-identical to an
uninstrumented one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ObservabilityError

__all__ = [
    "PlacementOutcome",
    "PredictionLedger",
    "PredictionRecord",
    "QUANTITIES",
]

#: Every quantity the built-in instrumentation predicts, with the
#: mechanism that owns the estimate.  Closed registry, like
#: ``EVENT_KINDS``: predicting an unknown quantity is an error, and the
#: docs-consistency test keeps this table in sync with the docs.
QUANTITIES: dict[str, str] = {
    "sim_step_time": "Monitor: predicted next simulation step duration "
    "(T_{i+1}_sim) vs the step time actually observed",
    "insitu_time": "Monitor: predicted in-situ analysis time (T_insitu) "
    "vs the realized serialized run time",
    "intransit_time": "Monitor: predicted in-transit service time "
    "(T_intransit) vs the realized staging job duration",
    "transfer_time": "Monitor: predicted staging transfer time (T_sd) "
    "vs the realized ingest transfer time",
    "memory_demand": "Engine: predicted staging memory demand of the "
    "placed step vs the bytes actually ingested",
    "staging_cores": "Engine: chosen staging core count M vs the cores "
    "actually enabled after clamping",
}

#: Tolerance below which a counterfactual advantage is not a flip.
_FLIP_EPSILON = 1e-9


@dataclass
class PredictionRecord:
    """One estimate and (once resolved) its realized value."""

    seq: int
    quantity: str
    step: int
    predicted: float
    predicted_at: float
    mechanism: str = ""
    realized: float | None = None
    realized_at: float | None = None

    @property
    def resolved(self) -> bool:
        return self.realized is not None

    @property
    def signed_relative_error(self) -> float | None:
        """(predicted - realized) / realized; None unless realized > 0."""
        if self.realized is None or self.realized <= 0:
            return None
        return (self.predicted - self.realized) / self.realized

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "quantity": self.quantity,
            "step": self.step,
            "predicted": self.predicted,
            "predicted_at": self.predicted_at,
            "mechanism": self.mechanism,
            "realized": self.realized,
            "realized_at": self.realized_at,
        }


@dataclass
class PlacementOutcome:
    """One scored placement decision and its counterfactual.

    The *estimated* costs are what the middleware policy compared (the
    possibly-lying numbers); the *true* components are exact under the
    simulator's model (the staging backlog and service rates are known),
    so the counterfactual is hindsight, not another estimate.

    Costs are in the currency of Eq. 6 -- seconds the decision added to
    the end-to-end time beyond pure simulation:

    - an in-situ run costs its serialized analysis time;
    - an in-transit placement costs its memory stall plus however much
      of the job outlived the simulation pipeline (the unhidden tail).

    ``HYBRID`` and ``POST_PROCESS`` steps are recorded by the driver's
    metrics but not scored here (their counterfactual is not a single
    placement).  Per-step regret ignores cross-step knock-on effects
    (queueing one job delays the next), so the summed regret is a
    marginal, slightly pessimistic bound.
    """

    step: int
    chosen: str
    est_insitu: float
    est_intransit: float
    insitu_true: float
    backlog_true: float
    service_true: float
    dispatched_at: float
    block_seconds: float = 0.0
    finished_at: float | None = None
    realized_insitu: float | None = None
    scored: bool = False
    chosen_cost: float | None = None
    alt_cost: float | None = None

    @property
    def regret(self) -> float:
        """Seconds the other placement would have saved (0 when right)."""
        if not self.scored:
            return 0.0
        return max(0.0, self.chosen_cost - self.alt_cost)

    @property
    def flipped(self) -> bool:
        """True when hindsight strictly prefers the other placement."""
        if not self.scored:
            return False
        return self.alt_cost + _FLIP_EPSILON < self.chosen_cost

    def as_dict(self) -> dict[str, Any]:
        return {
            "step": self.step,
            "chosen": self.chosen,
            "est_insitu": self.est_insitu,
            "est_intransit": self.est_intransit,
            "insitu_true": self.insitu_true,
            "backlog_true": self.backlog_true,
            "service_true": self.service_true,
            "dispatched_at": self.dispatched_at,
            "block_seconds": self.block_seconds,
            "finished_at": self.finished_at,
            "realized_insitu": self.realized_insitu,
            "scored": self.scored,
            "chosen_cost": self.chosen_cost,
            "alt_cost": self.alt_cost,
        }


class PredictionLedger:
    """Estimates paired with realized values, keyed by quantity and step.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (simulated) time;
        the workflow driver binds this to the run's simulator, like the
        tracer's clock.  Unset, timestamps are 0.0.
    """

    #: Always True; the null ledger's False lets call sites skip
    #: computing the estimates a prediction would record.
    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock
        self._records: list[PredictionRecord] = []
        self._pending: dict[tuple[str, int], list[PredictionRecord]] = {}
        self._placements: dict[int, PlacementOutcome] = {}
        #: Resolutions that arrived with no matching prediction pending.
        self.unmatched = 0
        self._seq = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach (or replace) the time source for subsequent records."""
        self.clock = clock

    def _now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    # -- predictions --------------------------------------------------------

    def predict(
        self, quantity: str, step: int, predicted: float, mechanism: str = ""
    ) -> PredictionRecord:
        """Record one estimate for ``(quantity, step)``."""
        if quantity not in QUANTITIES:
            raise ObservabilityError(
                f"unknown prediction quantity {quantity!r}; "
                f"registered: {sorted(QUANTITIES)}"
            )
        record = PredictionRecord(
            seq=self._seq,
            quantity=quantity,
            step=step,
            predicted=float(predicted),
            predicted_at=self._now(),
            mechanism=mechanism,
        )
        self._seq += 1
        self._records.append(record)
        self._pending.setdefault((quantity, step), []).append(record)
        return record

    def resolve(
        self, quantity: str, step: int, realized: float
    ) -> PredictionRecord | None:
        """Pair a realized value with the oldest pending prediction.

        Returns the resolved record, or ``None`` (and counts the event in
        :attr:`unmatched`) when nothing was pending for the key --
        off-sample steps legitimately realize values nobody predicted.
        """
        queue = self._pending.get((quantity, step))
        if not queue:
            self.unmatched += 1
            return None
        record = queue.pop(0)
        if not queue:
            del self._pending[(quantity, step)]
        record.realized = float(realized)
        record.realized_at = self._now()
        return record

    def has_pending(self, quantity: str, step: int) -> bool:
        """True when a prediction for ``(quantity, step)`` awaits its value."""
        return bool(self._pending.get((quantity, step)))

    # -- placement outcomes -------------------------------------------------

    def record_placement(
        self,
        step: int,
        chosen: str,
        est_insitu: float,
        est_intransit: float,
        insitu_true: float,
        backlog_true: float,
        service_true: float,
        dispatched_at: float,
    ) -> PlacementOutcome:
        """Record one placement decision's estimates and true components."""
        outcome = PlacementOutcome(
            step=step,
            chosen=chosen,
            est_insitu=float(est_insitu),
            est_intransit=float(est_intransit),
            insitu_true=float(insitu_true),
            backlog_true=float(backlog_true),
            service_true=float(service_true),
            dispatched_at=float(dispatched_at),
        )
        self._placements[step] = outcome
        return outcome

    def resolve_placement(
        self,
        step: int,
        *,
        block_seconds: float | None = None,
        finished_at: float | None = None,
        realized_insitu: float | None = None,
    ) -> None:
        """Attach realized components to a recorded placement.

        Silently ignores steps with no recorded placement (hybrid and
        post-process steps share the driver's completion paths but are
        not scored).
        """
        outcome = self._placements.get(step)
        if outcome is None:
            return
        if block_seconds is not None:
            outcome.block_seconds = float(block_seconds)
        if finished_at is not None:
            outcome.finished_at = float(finished_at)
        if realized_insitu is not None:
            outcome.realized_insitu = float(realized_insitu)

    def finalize(self, sim_end: float) -> None:
        """Score every placement against its counterfactual.

        ``sim_end`` is the simulated time the simulation pipeline
        finished (before the staging drain); in-transit work completing
        after it is the unhidden tail Eq. 6 charges to the run.
        """
        for outcome in self._placements.values():
            if outcome.chosen == "in_situ":
                if outcome.realized_insitu is None:
                    continue
                outcome.chosen_cost = outcome.realized_insitu
                # Had we shipped it: the sim pipeline would have ended
                # earlier by the serialized time we actually paid, and
                # only the job's overshoot past that end would count.
                window = max(
                    0.0,
                    sim_end - outcome.dispatched_at - outcome.realized_insitu,
                )
                outcome.alt_cost = max(
                    0.0, outcome.backlog_true + outcome.service_true - window
                )
                outcome.scored = True
            elif outcome.chosen == "in_transit":
                if outcome.finished_at is None:
                    continue
                tail = max(0.0, outcome.finished_at - sim_end)
                outcome.chosen_cost = outcome.block_seconds + tail
                outcome.alt_cost = outcome.insitu_true
                outcome.scored = True

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def records(
        self, quantity: str | None = None, step: int | None = None
    ) -> list[PredictionRecord]:
        """All records, optionally filtered by quantity and/or step."""
        out = self._records
        if quantity is not None:
            out = [r for r in out if r.quantity == quantity]
        if step is not None:
            out = [r for r in out if r.step == step]
        return list(out)

    def resolved_records(self, quantity: str | None = None) -> list[PredictionRecord]:
        """Records whose realized value has arrived, in prediction order."""
        return [r for r in self.records(quantity) if r.resolved]

    def pending_count(self, quantity: str | None = None) -> int:
        """Predictions still awaiting their realized value."""
        return sum(1 for r in self.records(quantity) if not r.resolved)

    def quantities_seen(self) -> set[str]:
        """Distinct quantities currently recorded."""
        return {r.quantity for r in self._records}

    @property
    def placements(self) -> list[PlacementOutcome]:
        """Recorded placement outcomes in step order."""
        return [self._placements[step] for step in sorted(self._placements)]

    # -- export -------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation of the full ledger."""
        return {
            "records": [r.as_dict() for r in self._records],
            "placements": [p.as_dict() for p in self.placements],
            "unmatched": self.unmatched,
        }
