"""Render run records for humans: decision timelines and occupancy Gantts.

Views of one run record's ``events`` section
(:mod:`repro.observability.record`), all plain text (the repo's output
discipline), so a stored record re-renders exactly what the CLI printed:

- :func:`decision_timeline` -- one row per ``adapt.decision`` event with
  the inputs the engine decided on (backlog, estimated in-situ vs
  in-transit time) and the policies' own reasoning, so a single decision
  can be read end to end;
- :func:`occupancy_gantt` -- the Fig.-4-style picture: simulation-core
  occupancy (with stalls marked) over staging-core occupancy, on a
  shared simulated-time axis;
- :func:`fault_timeline` -- injected faults, retries, aborts and
  placement fallbacks in chronological order (the ``repro faults`` CLI's
  output).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.observability.events import (
    ADAPT_ACTION,
    ADAPT_DECISION,
    FAULT_CLEARED,
    FAULT_INJECTED,
    PLACEMENT_FALLBACK,
    SIM_STALL,
    STAGING_JOB_ABORT,
    STAGING_JOB_END,
    STAGING_JOB_START,
    STAGING_RETRY,
    STEP_END,
    STEP_START,
)

__all__ = ["decision_timeline", "fault_timeline", "occupancy_gantt"]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _events(record: Mapping[str, Any], kind: str) -> list[dict]:
    return [e for e in record["events"] if e["kind"] == kind]


def _truncation_banner(record: Mapping[str, Any]) -> str | None:
    """A warning line when the ring buffer evicted events, else None.

    Every renderer prepends it so a wrapped trace is never silently
    presented as the whole run.  A record without a ``trace`` section
    (written before it existed) shows no banner.
    """
    trace = record.get("trace", {})
    if trace.get("dropped", 0) <= 0:
        return None
    return (
        f"!! trace truncated: ring buffer (capacity {trace['capacity']}) "
        f"evicted {trace['dropped']} older events; "
        f"showing the newest {len(record['events'])}"
    )


def decision_timeline(record: Mapping[str, Any]) -> str:
    """One row per adaptation decision: outputs, inputs, reasoning."""
    banner = _truncation_banner(record)
    decisions = _events(record, ADAPT_DECISION)
    if not decisions:
        empty = "(no adaptation decisions in trace)"
        return f"{banner}\n{empty}" if banner else empty
    reasons: dict[int | None, list[str]] = {}
    for action in _events(record, ADAPT_ACTION):
        layer = action["fields"].get("layer", "?")
        reason = action["fields"].get("reason", "")
        if reason:
            reasons.setdefault(action["step"], []).append(f"[{layer}] {reason}")

    headers = ["t(s)", "step", "factor", "placement", "M", "backlog(s)",
               "T_insitu(s)", "T_intransit(s)"]
    rows = []
    for event in decisions:
        f = event["fields"]
        rows.append([
            f"{event['ts']:.2f}",
            _fmt(event["step"]),
            _fmt(f.get("factor") or 1),
            _fmt(f.get("placement") or "-"),
            _fmt(f.get("staging_cores") or "-"),
            _fmt(f.get("est_intransit_remaining", 0.0)),
            _fmt(f.get("est_insitu_time", 0.0)),
            _fmt(f.get("est_intransit_time", 0.0)),
        ])
    widths = [max(len(h), max(len(r[i]) for r in rows))
              for i, h in enumerate(headers)]
    lines = [banner] if banner else []
    lines += ["  ".join(h.rjust(w) for h, w in zip(headers, widths)),
              "  ".join("-" * w for w in widths)]
    for event, row in zip(decisions, rows):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        for reason in reasons.get(event["step"], []):
            lines.append(" " * 4 + reason)
    return "\n".join(lines)


def _intervals(
    record: Mapping[str, Any], open_kind: str, close_kind: str, key
) -> list[tuple[float, float]]:
    """Pair open/close events by ``key`` into (start, end) intervals."""
    pending: dict[object, float] = {}
    out: list[tuple[float, float]] = []
    for event in record["events"]:
        if event["kind"] == open_kind:
            pending[key(event)] = event["ts"]
        elif event["kind"] == close_kind:
            start = pending.pop(key(event), None)
            if start is not None and event["ts"] > start:
                out.append((start, event["ts"]))
    return out


def occupancy_gantt(record: Mapping[str, Any], width: int = 72) -> str:
    """Sim vs in-transit occupancy bars over the run (Fig. 4's picture).

    ``=`` marks busy time, ``x`` marks simulation stalls (blocked on
    staging memory or a collective PFS write), ``.`` marks idle.
    """
    banner = _truncation_banner(record)
    events = record["events"]
    if not events:
        empty = "(empty trace)"
        return f"{banner}\n{empty}" if banner else empty
    t_end = max(e["ts"] for e in events)
    if t_end <= 0:
        flat = "(trace spans zero simulated time)"
        return f"{banner}\n{flat}" if banner else flat
    width = max(10, int(width))
    scale = width / t_end

    sim_busy = _intervals(record, STEP_START, STEP_END,
                          key=lambda e: e["step"])
    staging_busy = _intervals(
        record, STAGING_JOB_START, STAGING_JOB_END,
        key=lambda e: e["fields"].get("job_id"),
    )
    stalls = [
        (e["ts"] - e["fields"].get("seconds", 0.0), e["ts"])
        for e in _events(record, SIM_STALL)
        if e["fields"].get("seconds", 0.0) > 0
    ]

    def bar(intervals: list[tuple[float, float]], overlay=None) -> str:
        cells = ["."] * width
        for start, end in intervals:
            lo = min(width - 1, int(start * scale))
            hi = min(width - 1, max(lo, int(end * scale - 1e-12)))
            for i in range(lo, hi + 1):
                cells[i] = "="
        for start, end in overlay or []:
            lo = min(width - 1, int(start * scale))
            hi = min(width - 1, max(lo, int(end * scale - 1e-12)))
            for i in range(lo, hi + 1):
                cells[i] = "x"
        return "".join(cells)

    axis = f"0s{' ' * (width - 2 - len(f'{t_end:.1f}s'))}{t_end:.1f}s"
    lines = [banner] if banner else []
    lines += [
        f"sim      |{bar(sim_busy, overlay=stalls)}|",
        f"staging  |{bar(staging_busy)}|",
        f"          {axis}",
        "          = busy   x stalled   . idle",
    ]
    return "\n".join(lines)


#: Event kinds rendered by :func:`fault_timeline`, in emission order.
_FAULT_TIMELINE_KINDS = (
    FAULT_INJECTED,
    FAULT_CLEARED,
    STAGING_RETRY,
    STAGING_JOB_ABORT,
    PLACEMENT_FALLBACK,
)


def fault_timeline(record: Mapping[str, Any]) -> str:
    """Chronological log of injected faults and the recovery they triggered.

    One line per ``fault.injected`` / ``fault.cleared`` /
    ``staging.retry`` / ``staging.job_abort`` / ``placement.fallback``
    event, plus any degraded adaptation decisions, so an operator can
    read cause (injection) and effect (recovery decision) off one page.
    """
    banner = _truncation_banner(record)
    picked = [
        e for e in record["events"]
        if e["kind"] in _FAULT_TIMELINE_KINDS
        or (e["kind"] == ADAPT_DECISION and e["fields"].get("degraded"))
    ]
    if not picked:
        empty = "(no fault activity in trace)"
        return f"{banner}\n{empty}" if banner else empty
    lines = [banner] if banner else []
    for event in picked:
        kind, fields = event["kind"], event["fields"]
        if kind == ADAPT_DECISION:
            what = "adapt.decision DEGRADED placement=in_situ"
        else:
            detail = " ".join(
                f"{k}={_fmt(v)}" for k, v in fields.items() if k != "fault"
            )
            if kind == FAULT_INJECTED:
                parts = ["inject", fields.get("fault", "?"), detail]
            elif kind == FAULT_CLEARED:
                parts = ["clear", fields.get("fault", "?"), detail]
            else:
                parts = [kind, detail]
            what = " ".join(p for p in parts if p)
        step = f" step={event['step']}" if event["step"] is not None else ""
        lines.append(f"t={event['ts']:10.3f}s{step}  {what}")
    return "\n".join(lines)
