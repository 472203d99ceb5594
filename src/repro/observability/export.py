"""Exporters: Prometheus text exposition and versioned JSON snapshots.

Two ways to get the observability state out of a run:

- :func:`prometheus_text` -- the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / sample lines) over a
  :class:`~repro.observability.metrics.MetricsRegistry`, the span
  aggregates of an injected
  :class:`~repro.observability.profiler.Profiler` (call counts plus
  cumulative and self seconds, one ``span`` label per path) and, when a
  ledger is given, the calibration gauges and regret counters derived
  from it.  Metric names are prefixed ``repro_`` with dots mapped to
  underscores (``workflow.steps`` -> ``repro_workflow_steps_total``).
- :func:`export_snapshot` / :func:`load_snapshot` /
  :func:`diff_snapshots` -- a versioned JSON snapshot
  (:data:`SNAPSHOT_SCHEMA`) carrying the metrics, the profiler span
  aggregates, the per-quantity calibration summary, the regret summary
  and the full ledger, plus a differ that reports estimate-error drift,
  regret delta and placement decision flips between two exported runs
  (``repro audit --diff``).  Version-1 snapshots (no ``profile`` key)
  load and diff without error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ObservabilityError
from repro.observability.calibration import calibrate, placement_regret
from repro.observability.ledger import PredictionLedger
from repro.observability.metrics import (
    METRIC_NAMES,
    Counter,
    EmaTimer,
    Gauge,
    MetricsRegistry,
)
from repro.observability.profiler import Profiler

__all__ = [
    "SNAPSHOT_SCHEMA",
    "diff_snapshots",
    "export_snapshot",
    "load_snapshot",
    "prometheus_text",
    "render_diff",
]

#: Version tag of the JSON snapshot layout; bumped on breaking changes.
#: Version 2 added the ``profile`` section (profiler span aggregates);
#: version-1 snapshots still load.
SNAPSHOT_SCHEMA = "repro.observability.snapshot/2"

#: Older snapshot layouts :func:`load_snapshot` still accepts.
_SNAPSHOT_SCHEMAS = (SNAPSHOT_SCHEMA, "repro.observability.snapshot/1")

def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prom_value(value: float) -> str:
    # Prometheus accepts float text; integers render without the dot.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(
    metrics: MetricsRegistry | None = None,
    ledger: PredictionLedger | None = None,
    profiler: Profiler | None = None,
) -> str:
    """Render the current state in Prometheus text exposition format.

    Counters gain the conventional ``_total`` suffix; EMA timers export
    their smoothed value as a gauge plus ``_count``/``_sum`` counters
    (the summary convention).  Ledger-derived series carry a
    ``quantity`` label per estimator; profiler span aggregates carry a
    ``span`` label per path (call counts plus cumulative and self
    seconds).
    """
    lines: list[str] = []

    def sample(name: str, kind: str, help_text: str, value: float,
               labels: str = "") -> None:
        if not any(line.startswith(f"# TYPE {name} ") for line in lines):
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{labels} {_prom_value(value)}")

    if metrics is not None:
        for name, instrument in sorted(metrics.instruments().items()):
            help_text = METRIC_NAMES.get(name, "unregistered metric")
            if isinstance(instrument, Counter):
                sample(_prom_name(name) + "_total", "counter", help_text,
                       instrument.value)
            elif isinstance(instrument, Gauge):
                sample(_prom_name(name), "gauge", help_text, instrument.value)
            elif isinstance(instrument, EmaTimer):
                base = _prom_name(name)
                sample(base, "gauge", help_text + " (EMA)", instrument.value)
                sample(base + "_count", "counter", help_text + " (observations)",
                       instrument.count)
                sample(base + "_sum", "counter", help_text + " (total seconds)",
                       instrument.total)

    if profiler is not None:
        for path, snap in sorted(profiler.dump().items()):
            labels = f'{{span="{path}"}}'
            sample("repro_span_calls_total", "counter",
                   "times the span was entered", snap["count"], labels)
            sample("repro_span_seconds_total", "counter",
                   "cumulative wall-clock seconds inside the span",
                   snap["cum_seconds"], labels)
            sample("repro_span_self_seconds_total", "counter",
                   "wall-clock seconds inside the span minus child spans",
                   snap["self_seconds"], labels)

    if ledger is not None:
        stats = calibrate(ledger)
        for quantity in sorted(stats):
            s = stats[quantity]
            labels = f'{{quantity="{quantity}"}}'
            sample("repro_ledger_predictions_total", "counter",
                   "estimates recorded in the prediction ledger",
                   s.count + s.pending + s.skipped, labels)
            sample("repro_ledger_resolved_total", "counter",
                   "estimates paired with a realized value",
                   s.count + s.skipped, labels)
            sample("repro_calibration_bias_pct", "gauge",
                   "mean signed relative prediction error (percent)",
                   s.bias_pct, labels)
            sample("repro_calibration_mape_pct", "gauge",
                   "mean absolute percentage prediction error",
                   s.mape_pct, labels)
        regret = placement_regret(ledger)
        sample("repro_placement_decisions_scored_total", "counter",
               "placement decisions scored against their counterfactual",
               regret.scored)
        sample("repro_placement_decision_flips_total", "counter",
               "scored placements hindsight flips", regret.flips)
        sample("repro_placement_regret_seconds_total", "counter",
               "summed counterfactual regret of wrong placements",
               regret.total_regret_seconds)
        sample("repro_ledger_unmatched_total", "counter",
               "realized values with no matching prediction",
               ledger.unmatched)

    return "\n".join(lines) + ("\n" if lines else "")


# -- JSON snapshots ------------------------------------------------------------


def export_snapshot(
    metrics: MetricsRegistry | None = None,
    ledger: PredictionLedger | None = None,
    label: str = "",
    path: str | Path | None = None,
    profiler: Profiler | None = None,
) -> dict[str, Any]:
    """Build (and optionally write) a versioned observability snapshot.

    With a ``profiler`` the snapshot's ``profile`` key carries the span
    aggregates (:meth:`~repro.observability.profiler.Profiler.dump`);
    without one it is an empty mapping, matching what version-1
    snapshots implicitly had.
    """
    payload: dict[str, Any] = {"schema": SNAPSHOT_SCHEMA, "label": label}
    payload["profile"] = profiler.dump() if profiler is not None else {}

    metrics_payload: dict[str, Any] = {}
    if metrics is not None:
        for name, instrument in metrics.instruments().items():
            if isinstance(instrument, EmaTimer):
                metrics_payload[name] = {
                    "type": "ema_timer",
                    "value": instrument.value,
                    "count": instrument.count,
                    "total": instrument.total,
                }
            elif isinstance(instrument, Gauge):
                metrics_payload[name] = {"type": "gauge",
                                         "value": instrument.value}
            else:
                metrics_payload[name] = {"type": "counter",
                                         "value": instrument.value}
    payload["metrics"] = dict(sorted(metrics_payload.items()))

    calibration_payload: dict[str, Any] = {}
    regret_payload: dict[str, Any] = {}
    placements_payload: dict[str, str] = {}
    ledger_payload: dict[str, Any] = {}
    if ledger is not None:
        for quantity, s in calibrate(ledger).items():
            calibration_payload[quantity] = {
                "count": s.count,
                "pending": s.pending,
                "skipped": s.skipped,
                "bias_pct": s.bias_pct,
                "mape_pct": s.mape_pct,
                "max_ape_pct": s.max_ape_pct,
                "final_ema_pct": s.final_ema_pct,
            }
        regret = placement_regret(ledger)
        regret_payload = {
            "decisions": regret.decisions,
            "scored": regret.scored,
            "flips": regret.flips,
            "total_regret_seconds": regret.total_regret_seconds,
            "worst_step": regret.worst_step,
            "worst_regret_seconds": regret.worst_regret_seconds,
        }
        placements_payload = {
            str(p.step): p.chosen for p in ledger.placements
        }
        ledger_payload = ledger.as_dict()
    payload["calibration"] = calibration_payload
    payload["regret"] = regret_payload
    payload["placements"] = placements_payload
    payload["ledger"] = ledger_payload

    if path is not None:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def load_snapshot(source: str | Path | Mapping[str, Any]) -> dict[str, Any]:
    """Load and validate a snapshot (dict, JSON text, or file path)."""
    if isinstance(source, Mapping):
        payload: Any = dict(source)
    else:
        if isinstance(source, Path) or (
            isinstance(source, str)
            and "\n" not in source
            and source.endswith(".json")
        ):
            text = Path(source).read_text()
        else:
            text = str(source)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"not a snapshot: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("schema") not in _SNAPSHOT_SCHEMAS
    ):
        raise ObservabilityError(
            f"not a {SNAPSHOT_SCHEMA} snapshot: "
            f"schema={payload.get('schema')!r}"
            if isinstance(payload, dict)
            else "not a snapshot: top level is not an object"
        )
    return payload


def diff_snapshots(
    a: str | Path | Mapping[str, Any], b: str | Path | Mapping[str, Any]
) -> dict[str, Any]:
    """Drift between two snapshots: estimate error, regret, decisions.

    Positive ``*_delta`` values mean ``b`` is worse (more error, more
    regret, more flips) than ``a``.
    """
    snap_a, snap_b = load_snapshot(a), load_snapshot(b)
    cal_a, cal_b = snap_a.get("calibration", {}), snap_b.get("calibration", {})
    calibration: dict[str, Any] = {}
    for quantity in sorted(set(cal_a) | set(cal_b)):
        qa, qb = cal_a.get(quantity), cal_b.get(quantity)
        calibration[quantity] = {
            "mape_a": None if qa is None else qa["mape_pct"],
            "mape_b": None if qb is None else qb["mape_pct"],
            "mape_delta": (
                None if qa is None or qb is None
                else qb["mape_pct"] - qa["mape_pct"]
            ),
            "bias_a": None if qa is None else qa["bias_pct"],
            "bias_b": None if qb is None else qb["bias_pct"],
            "bias_delta": (
                None if qa is None or qb is None
                else qb["bias_pct"] - qa["bias_pct"]
            ),
        }
    reg_a, reg_b = snap_a.get("regret", {}), snap_b.get("regret", {})
    places_a = snap_a.get("placements", {})
    places_b = snap_b.get("placements", {})
    changes = [
        {"step": int(step), "a": places_a[step], "b": places_b[step]}
        for step in sorted(set(places_a) & set(places_b), key=int)
        if places_a[step] != places_b[step]
    ]
    return {
        "labels": (snap_a.get("label", ""), snap_b.get("label", "")),
        "calibration": calibration,
        "regret_a": reg_a.get("total_regret_seconds", 0.0),
        "regret_b": reg_b.get("total_regret_seconds", 0.0),
        "regret_delta": (
            reg_b.get("total_regret_seconds", 0.0)
            - reg_a.get("total_regret_seconds", 0.0)
        ),
        "flips_a": reg_a.get("flips", 0),
        "flips_b": reg_b.get("flips", 0),
        "flips_delta": reg_b.get("flips", 0) - reg_a.get("flips", 0),
        "placement_changes": changes,
    }


def render_diff(diff: Mapping[str, Any]) -> str:
    """Human-readable rendering of :func:`diff_snapshots` output."""
    label_a, label_b = diff.get("labels", ("a", "b"))
    lines = [f"drift: {label_a or 'a'} -> {label_b or 'b'}", ""]
    calibration = diff.get("calibration", {})
    if calibration:
        headers = ["estimator", "MAPE% a", "MAPE% b", "dMAPE",
                   "bias% a", "bias% b", "dbias"]
        rows = []
        for quantity in sorted(calibration):
            c = calibration[quantity]

            def fmt(value: Any, signed: bool = False) -> str:
                if value is None:
                    return "-"
                return f"{value:+.1f}" if signed else f"{value:.1f}"

            rows.append([
                quantity,
                fmt(c["mape_a"]), fmt(c["mape_b"]),
                fmt(c["mape_delta"], signed=True),
                fmt(c["bias_a"], signed=True), fmt(c["bias_b"], signed=True),
                fmt(c["bias_delta"], signed=True),
            ])
        widths = [max(len(h), max(len(r[i]) for r in rows))
                  for i, h in enumerate(headers)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    else:
        lines.append("(no calibration data in either snapshot)")
    lines.append("")
    lines.append(
        f"regret: {diff['regret_a']:.2f}s -> {diff['regret_b']:.2f}s "
        f"({diff['regret_delta']:+.2f}s)"
    )
    lines.append(
        f"flips : {diff['flips_a']} -> {diff['flips_b']} "
        f"({diff['flips_delta']:+d})"
    )
    changes = diff.get("placement_changes", [])
    if changes:
        lines.append(f"placement decisions changed on {len(changes)} steps:")
        for change in changes[:20]:
            lines.append(
                f"  step {change['step']}: {change['a']} -> {change['b']}"
            )
        if len(changes) > 20:
            lines.append(f"  ... and {len(changes) - 20} more")
    else:
        lines.append("placement decisions identical on shared steps")
    return "\n".join(lines)
