"""The run record: one versioned JSON object per observed run.

``python -m repro trace|audit|faults|profile --record PATH`` writes one
:data:`RECORD_SCHEMA` object, built by
:func:`repro.workflow.report.run_record`.  Its sections:

- ``schema`` and ``label``;
- ``result`` -- the :func:`~repro.workflow.report.result_to_json`
  payload;
- ``events`` -- the tracer's retained events, one
  :meth:`~repro.observability.events.TraceEvent.as_dict` each
  (:meth:`Tracer.json_events
  <repro.observability.tracer.Tracer.json_events>`);
- ``trace`` -- the tracer's ring-buffer ``capacity`` and the count of
  events it ``dropped``, so a truncated ``events`` section renders with
  its banner;
- ``metrics`` -- :meth:`MetricsRegistry.dump
  <repro.observability.metrics.MetricsRegistry.dump>`;
- ``spans`` -- :meth:`Profiler.dump
  <repro.observability.profiler.Profiler.dump>`;
- ``counters`` -- the event kernel's per-kind tallies;
- ``calibration``, ``regret``, ``placements`` and ``ledger`` -- the
  prediction ledger's per-estimator calibration, counterfactual regret,
  per-step placements and full record list.

A section is empty when its hook was not injected.  The renderers
(:func:`~repro.observability.timeline.decision_timeline`,
:func:`~repro.observability.calibration.calibration_report`,
:func:`~repro.observability.profiler.render_profile`, ...) read a
record or its ``spans``, so a stored record re-renders what the CLI
printed.  This module works only on the record dict: :func:`load_record`
reads one back, :func:`diff_records` / :func:`render_diff` compare two
(``repro audit --diff``: estimate-error drift, regret delta, placement
decision flips) and :func:`prometheus_text` renders one in the
Prometheus text exposition format (metric names prefixed ``repro_``, dots mapped to
underscores: ``workflow.steps`` -> ``repro_workflow_steps_total``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ObservabilityError
from repro.observability.metrics import METRIC_NAMES

__all__ = [
    "RECORD_SCHEMA",
    "diff_records",
    "load_record",
    "prometheus_text",
    "render_diff",
]

#: Version tag of the run-record layout; bumped on breaking changes.
RECORD_SCHEMA = "repro.run/1"


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prom_value(value: float) -> str:
    # Prometheus accepts float text; integers render without the dot.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(record: Mapping[str, Any]) -> str:
    """Render a run record in Prometheus text exposition format.

    Counters gain the conventional ``_total`` suffix; EMA timers export
    their smoothed value as a gauge plus ``_count``/``_sum`` counters
    (the summary convention).  Span aggregates carry a ``span`` label
    per path (call counts plus cumulative and self seconds); when the
    run had a ledger, its calibration and regret series carry a
    ``quantity`` label per estimator.
    """
    lines: list[str] = []

    def sample(name: str, kind: str, help_text: str, value: float,
               labels: str = "") -> None:
        if not any(line.startswith(f"# TYPE {name} ") for line in lines):
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{labels} {_prom_value(value)}")

    for name, snap in sorted(record["metrics"].items()):
        help_text = METRIC_NAMES.get(name, "unregistered metric")
        if snap["kind"] == "counter":
            sample(_prom_name(name) + "_total", "counter", help_text,
                   snap["value"])
        elif snap["kind"] == "gauge":
            sample(_prom_name(name), "gauge", help_text, snap["value"])
        else:
            base = _prom_name(name)
            sample(base, "gauge", help_text + " (EMA)", snap["value"])
            sample(base + "_count", "counter", help_text + " (observations)",
                   snap["count"])
            sample(base + "_sum", "counter", help_text + " (total seconds)",
                   snap["total"])

    for path, snap in sorted(record["spans"].items()):
        labels = f'{{span="{path}"}}'
        sample("repro_span_calls_total", "counter",
               "times the span was entered", snap["count"], labels)
        sample("repro_span_seconds_total", "counter",
               "cumulative wall-clock seconds inside the span",
               snap["cum_seconds"], labels)
        sample("repro_span_self_seconds_total", "counter",
               "wall-clock seconds inside the span minus child spans",
               snap["self_seconds"], labels)

    if record["ledger"]:
        calibration = record["calibration"]
        for quantity in sorted(calibration):
            s = calibration[quantity]
            labels = f'{{quantity="{quantity}"}}'
            sample("repro_ledger_predictions_total", "counter",
                   "estimates recorded in the prediction ledger",
                   s["count"] + s["pending"] + s["skipped"], labels)
            sample("repro_ledger_resolved_total", "counter",
                   "estimates paired with a realized value",
                   s["count"] + s["skipped"], labels)
            sample("repro_calibration_bias_pct", "gauge",
                   "mean signed relative prediction error (percent)",
                   s["bias_pct"], labels)
            sample("repro_calibration_mape_pct", "gauge",
                   "mean absolute percentage prediction error",
                   s["mape_pct"], labels)
        regret = record["regret"]
        sample("repro_placement_decisions_scored_total", "counter",
               "placement decisions scored against their counterfactual",
               regret["scored"])
        sample("repro_placement_decision_flips_total", "counter",
               "scored placements hindsight flips", regret["flips"])
        sample("repro_placement_regret_seconds_total", "counter",
               "summed counterfactual regret of wrong placements",
               regret["total_regret_seconds"])
        sample("repro_ledger_unmatched_total", "counter",
               "realized values with no matching prediction",
               record["ledger"]["unmatched"])

    return "\n".join(lines) + ("\n" if lines else "")


def load_record(path: str | Path) -> dict[str, Any]:
    """Read a run record from ``path`` and check its schema.

    A file that is not JSON, or a JSON value that is not a
    :data:`RECORD_SCHEMA` object, raises :class:`ObservabilityError`.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ObservabilityError(f"{path} is not JSON: {exc}") from exc
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != RECORD_SCHEMA:
        raise ObservabilityError(
            f"{path} is not a {RECORD_SCHEMA} record (schema={schema!r})"
        )
    return payload


def diff_records(a: Mapping[str, Any], b: Mapping[str, Any]) -> dict[str, Any]:
    """Drift between two run records: estimate error, regret, decisions.

    Positive ``*_delta`` values mean ``b`` is worse (more error, more
    regret, more flips) than ``a``.
    """
    cal_a, cal_b = a["calibration"], b["calibration"]
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
    # The regret section is empty when a run had no ledger.
    regret_a = a["regret"].get("total_regret_seconds", 0.0)
    regret_b = b["regret"].get("total_regret_seconds", 0.0)
    flips_a = a["regret"].get("flips", 0)
    flips_b = b["regret"].get("flips", 0)
    places_a, places_b = a["placements"], b["placements"]
    changes = [
        {"step": int(step), "a": places_a[step], "b": places_b[step]}
        for step in sorted(set(places_a) & set(places_b), key=int)
        if places_a[step] != places_b[step]
    ]
    return {
        "labels": (a["label"], b["label"]),
        "calibration": calibration,
        "regret_a": regret_a,
        "regret_b": regret_b,
        "regret_delta": regret_b - regret_a,
        "flips_a": flips_a,
        "flips_b": flips_b,
        "flips_delta": flips_b - flips_a,
        "placement_changes": changes,
    }


def render_diff(diff: Mapping[str, Any]) -> str:
    """Human-readable rendering of :func:`diff_records` output."""
    label_a, label_b = diff["labels"]
    lines = [f"drift: {label_a or 'a'} -> {label_b or 'b'}", ""]
    calibration = diff["calibration"]
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
        lines.append("(no calibration data in either record)")
    lines.append("")
    lines.append(
        f"regret: {diff['regret_a']:.2f}s -> {diff['regret_b']:.2f}s "
        f"({diff['regret_delta']:+.2f}s)"
    )
    lines.append(
        f"flips : {diff['flips_a']} -> {diff['flips_b']} "
        f"({diff['flips_delta']:+d})"
    )
    changes = diff["placement_changes"]
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
