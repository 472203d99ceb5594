"""Calibration audit: is the cost model telling the truth?

Consumes a :class:`~repro.observability.ledger.PredictionLedger` and
answers, per estimator quantity:

- **bias** -- mean signed relative error (positive = the estimator
  over-predicts);
- **MAPE** -- mean absolute percentage error;
- **EMA convergence** -- the exponentially smoothed absolute error over
  the observation sequence, showing whether the EMA estimators actually
  converge onto the realized rates as the run feeds them observations;

plus the **counterfactual placement regret** over the scored decisions:
how many placements hindsight flips, and the summed seconds the wrong
calls cost (:class:`RegretSummary`).

:func:`repro.workflow.report.run_record` stores both in a run record,
and :func:`calibration_report` renders them from there as plain text --
the body of ``python -m repro audit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.observability.ledger import (
    QUANTITIES,
    PlacementOutcome,
    PredictionLedger,
)

__all__ = [
    "EstimatorCalibration",
    "RegretSummary",
    "calibrate",
    "calibration_report",
    "placement_regret",
]

#: Characters for the convergence strip, lowest error first.
_STRIP_LEVELS = " .:-=+*#%@"


@dataclass(frozen=True)
class EstimatorCalibration:
    """Prediction-error statistics for one estimator quantity.

    ``ema_curve`` is the EMA of the absolute percentage error in
    observation order -- a falling curve means the estimator converges
    onto reality as observations feed back; a flat high curve means the
    cost model is systematically lying.
    """

    quantity: str
    count: int
    pending: int
    skipped: int  # resolved records with realized <= 0 (no relative error)
    bias_pct: float
    mape_pct: float
    max_ape_pct: float
    ema_curve: tuple[float, ...]

    @property
    def final_ema_pct(self) -> float:
        """The convergence curve's endpoint (0 when no observations)."""
        return self.ema_curve[-1] if self.ema_curve else 0.0


@dataclass(frozen=True)
class RegretSummary:
    """Counterfactual placement regret over the scored decisions."""

    decisions: int  # placements recorded
    scored: int  # placements with both costs resolved
    flips: int  # hindsight strictly prefers the other placement
    total_regret_seconds: float
    worst_step: int | None
    worst_regret_seconds: float

    @property
    def flip_fraction(self) -> float:
        """Share of scored decisions hindsight flips."""
        if self.scored == 0:
            return 0.0
        return self.flips / self.scored


def calibrate(
    ledger: PredictionLedger, alpha: float = 0.3
) -> dict[str, EstimatorCalibration]:
    """Per-quantity calibration over every quantity the ledger saw.

    ``alpha`` is the smoothing of the convergence curve -- the same
    default the runtime's EMA estimators use, so the curve answers
    "what error would an EMA tracker of my own accuracy report?".
    """
    out: dict[str, EstimatorCalibration] = {}
    for quantity in sorted(ledger.quantities_seen()):
        records = ledger.records(quantity)
        pending = sum(1 for r in records if not r.resolved)
        errors: list[float] = []  # signed relative errors, observation order
        skipped = 0
        for record in records:
            if not record.resolved:
                continue
            rel = record.signed_relative_error
            if rel is None:
                skipped += 1
                continue
            errors.append(rel)
        curve: list[float] = []
        for rel in errors:
            ape = abs(rel) * 100.0
            if not curve:
                curve.append(ape)
            else:
                curve.append((1 - alpha) * curve[-1] + alpha * ape)
        out[quantity] = EstimatorCalibration(
            quantity=quantity,
            count=len(errors),
            pending=pending,
            skipped=skipped,
            bias_pct=(
                100.0 * sum(errors) / len(errors) if errors else 0.0
            ),
            mape_pct=(
                100.0 * sum(abs(e) for e in errors) / len(errors)
                if errors
                else 0.0
            ),
            max_ape_pct=(
                100.0 * max(abs(e) for e in errors) if errors else 0.0
            ),
            ema_curve=tuple(curve),
        )
    return out


def placement_regret(ledger: PredictionLedger) -> RegretSummary:
    """Summarize the ledger's scored placement outcomes.

    Call :meth:`PredictionLedger.finalize` first (the workflow driver
    does, at the end of every instrumented run); unscored placements
    (hybrid, post-process, or unfinalized) count toward ``decisions``
    but not ``scored``.
    """
    placements = ledger.placements
    scored = [p for p in placements if p.scored]
    flips = [p for p in scored if p.flipped]
    worst = max(scored, key=lambda p: p.regret, default=None)
    return RegretSummary(
        decisions=len(placements),
        scored=len(scored),
        flips=len(flips),
        total_regret_seconds=sum(p.regret for p in scored),
        worst_step=(
            worst.step if worst is not None and worst.regret > 0 else None
        ),
        worst_regret_seconds=worst.regret if worst is not None else 0.0,
    )


def _strip(curve: tuple[float, ...], width: int = 24) -> str:
    """Downsample the EMA curve to a fixed-width character strip."""
    if not curve:
        return "(no samples)"
    top = max(curve)
    if top < 0.05:
        # Below the table's 0.1% display resolution everything is float
        # residue; normalizing would amplify noise into a fake ramp.
        return _STRIP_LEVELS[0] * width
    cells: list[str] = []
    for i in range(width):
        # Nearest-sample downsampling keeps the curve's shape.
        j = min(len(curve) - 1, i * len(curve) // width)
        if top <= 0:
            cells.append(_STRIP_LEVELS[0])
        else:
            level = curve[j] / top
            index = min(
                len(_STRIP_LEVELS) - 1,
                int(level * (len(_STRIP_LEVELS) - 1) + 0.5),
            )
            cells.append(_STRIP_LEVELS[index])
    return "".join(cells)


def calibration_report(record: Mapping[str, Any]) -> str:
    """The audit rendering of a run record: calibration table,
    convergence strips and the regret of its ledger sections."""
    stats = {
        quantity: EstimatorCalibration(
            **{**snap, "ema_curve": tuple(snap["ema_curve"])}
        )
        for quantity, snap in record["calibration"].items()
    }
    ledger = record["ledger"]
    lines: list[str] = []
    if not stats:
        lines.append("(no predictions recorded)")
    else:
        headers = ["estimator", "n", "pending", "bias%", "MAPE%",
                   "maxAPE%", "EMA%", "convergence (worst=@)"]
        rows = []
        for quantity in sorted(stats):
            s = stats[quantity]
            rows.append([
                quantity,
                str(s.count),
                str(s.pending),
                f"{s.bias_pct:+.1f}",
                f"{s.mape_pct:.1f}",
                f"{s.max_ape_pct:.1f}",
                f"{s.final_ema_pct:.1f}",
                _strip(s.ema_curve),
            ])
        widths = [
            max(len(h), max(len(r[i]) for r in rows))
            for i, h in enumerate(headers)
        ]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        undocumented = sorted(set(stats) - set(QUANTITIES))
        if undocumented:  # pragma: no cover - predict() rejects these
            lines.append(f"(unregistered quantities: {undocumented})")
    if ledger.get("unmatched"):
        lines.append(
            f"({ledger['unmatched']} realized values arrived with no "
            "matching prediction -- off-sample steps reuse old decisions)"
        )

    lines.append("")
    lines.append("placement regret (Eq. 8 audited with hindsight):")
    if not record["regret"] or record["regret"]["decisions"] == 0:
        lines.append("  (no placement decisions recorded)")
    else:
        regret = RegretSummary(**record["regret"])
        lines.append(
            f"  decisions scored : {regret.scored}/{regret.decisions}"
            + (
                ""
                if regret.scored == regret.decisions
                else "  (hybrid/post-process steps are not scored)"
            )
        )
        lines.append(
            f"  hindsight flips  : {regret.flips} "
            f"({100.0 * regret.flip_fraction:.0f}% of scored)"
        )
        lines.append(
            f"  summed regret    : {regret.total_regret_seconds:.2f}s "
            "(marginal, per-step bound)"
        )
        if regret.worst_step is not None:
            worst = next(
                PlacementOutcome(**p) for p in ledger["placements"]
                if p["step"] == regret.worst_step
            )
            lines.append(
                f"  worst call       : step {worst.step} chose "
                f"{worst.chosen} (cost {worst.chosen_cost:.2f}s); the "
                f"alternative would have cost {worst.alt_cost:.2f}s "
                f"(+{worst.regret:.2f}s regret)"
            )
    return "\n".join(lines)
