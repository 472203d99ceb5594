"""Structured observability: tracing, metrics, prediction auditing, export.

The paper's Monitor "captures runtime status information at the
different layers"; this package makes that capture *inspectable*.  It
provides the measurement surface every layer of the reproduction
publishes into:

- :class:`Tracer` -- typed, timestamped :class:`TraceEvent` records
  (step boundaries, monitor samples, adaptation decisions with their
  inputs, staging ingest/drain, stalls) in a bounded ring buffer, with
  JSONL export (:meth:`Tracer.to_jsonl` / :func:`read_jsonl`);
- :class:`MetricsRegistry` -- named :class:`Counter` / :class:`Gauge` /
  :class:`EmaTimer` instruments;
- :class:`Profiler` -- nested wall-clock spans (``with
  profiler.span("engine.adapt")``) aggregating call counts, cumulative
  and self seconds per span path (:data:`PROFILE_SPANS` is the closed
  registry of span names), with :func:`render_profile` /
  :func:`render_hot_spans` renderings, :func:`merge_worker_profiles`
  cross-process aggregation and the :func:`check_budgets` /
  :func:`load_budgets` hot-path budget layer over
  ``benchmarks/budgets.json`` (:data:`BUDGETS_SCHEMA`);
- :class:`PredictionLedger` -- every estimate the Monitor and the
  Adaptation Engine decide on, paired with the realized value the event
  simulator later delivers, plus per-step placement outcomes for
  counterfactual regret (:data:`QUANTITIES` is the closed registry);
- :func:`calibrate` / :func:`placement_regret` /
  :func:`calibration_report` -- per-estimator bias, MAPE and
  EMA-convergence curves, and the regret audit of Eq. 8's decisions
  (the ``repro audit`` CLI's output);
- :func:`prometheus_text` / :func:`export_snapshot` /
  :func:`load_snapshot` / :func:`diff_snapshots` / :func:`render_diff`
  -- the exporters: Prometheus text exposition and versioned JSON
  snapshots (:data:`SNAPSHOT_SCHEMA`), diffable across runs;
- :func:`decision_timeline` / :func:`occupancy_gantt` -- human-readable
  renderings of a trace (the ``repro trace`` CLI's output).

Instrumentation is injected as one :class:`Observer`: the simulator,
Monitor, Adaptation Engine, staging area and fault injector each take
``observer=``, and the workflow driver, the multi-tenant service, the
experiment cache and the entropy kernel build one from their optional
``tracer=`` / ``metrics=`` / ``ledger=`` / ``profiler=`` arguments.  A
hook left out is a null object that accepts every call and does
nothing, so call sites never branch on it (:mod:`.observer`).

:data:`EVENT_KINDS`, :data:`METRIC_NAMES` and :data:`QUANTITIES` are the
closed registries of everything the built-in instrumentation can emit;
see ``docs/observability.md`` for the schemas and worked examples.
"""

from repro.observability.budgets import (
    BUDGETS_SCHEMA,
    BudgetViolation,
    check_budgets,
    load_budgets,
    render_budget_report,
)
from repro.observability.calibration import (
    EstimatorCalibration,
    RegretSummary,
    calibrate,
    calibration_report,
    placement_regret,
)
from repro.observability.events import EVENT_KINDS, TraceEvent
from repro.observability.export import (
    SNAPSHOT_SCHEMA,
    diff_snapshots,
    export_snapshot,
    load_snapshot,
    prometheus_text,
    render_diff,
)
from repro.observability.ledger import (
    QUANTITIES,
    PlacementOutcome,
    PredictionLedger,
    PredictionRecord,
)
from repro.observability.metrics import (
    METRIC_NAMES,
    Counter,
    EmaTimer,
    Gauge,
    MetricsRegistry,
    merge_worker_metrics,
)
from repro.observability.observer import NULL_OBSERVER, Observer
from repro.observability.profiler import (
    PROFILE_SPANS,
    Profiler,
    SpanStat,
    merge_worker_profiles,
    render_hot_spans,
    render_profile,
    unregistered_spans,
)
from repro.observability.timeline import (
    decision_timeline,
    fault_timeline,
    occupancy_gantt,
)
from repro.observability.tracer import Tracer, read_jsonl

__all__ = [
    "BUDGETS_SCHEMA",
    "BudgetViolation",
    "Counter",
    "EmaTimer",
    "EstimatorCalibration",
    "EVENT_KINDS",
    "Gauge",
    "METRIC_NAMES",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "Observer",
    "PlacementOutcome",
    "PredictionLedger",
    "PredictionRecord",
    "PROFILE_SPANS",
    "Profiler",
    "QUANTITIES",
    "RegretSummary",
    "SNAPSHOT_SCHEMA",
    "SpanStat",
    "TraceEvent",
    "Tracer",
    "calibrate",
    "calibration_report",
    "check_budgets",
    "decision_timeline",
    "diff_snapshots",
    "export_snapshot",
    "fault_timeline",
    "load_budgets",
    "load_snapshot",
    "merge_worker_metrics",
    "merge_worker_profiles",
    "occupancy_gantt",
    "placement_regret",
    "prometheus_text",
    "read_jsonl",
    "render_budget_report",
    "render_diff",
    "render_hot_spans",
    "render_profile",
    "unregistered_spans",
]
