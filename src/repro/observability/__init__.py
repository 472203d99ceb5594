"""Structured observability: tracing, metrics, prediction auditing, export.

The paper's Monitor "captures runtime status information at the
different layers"; this package makes that capture *inspectable*.  It
provides the measurement surface every layer of the reproduction
publishes into:

- :class:`Tracer` -- typed, timestamped :class:`TraceEvent` records
  (step boundaries, monitor samples, adaptation decisions with their
  inputs, staging ingest/drain, stalls) in a bounded ring buffer;
- :class:`MetricsRegistry` -- named :class:`Counter` / :class:`Gauge` /
  :class:`EmaTimer` instruments;
- :class:`Profiler` -- nested wall-clock spans (``with
  profiler.span("engine.adapt")``) aggregating call counts, cumulative
  and self seconds per span path (:data:`PROFILE_SPANS` is the closed
  registry of span names), put on the layers' methods from outside by
  :func:`instrument`, with :func:`render_profile` /
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
- :func:`load_record` / :func:`diff_records` / :func:`render_diff` /
  :func:`prometheus_text` -- the versioned run record
  (:data:`RECORD_SCHEMA`, built by
  :func:`repro.workflow.report.run_record`): read back, diffed across
  runs, and rendered as Prometheus text exposition;
- :func:`decision_timeline` / :func:`occupancy_gantt` /
  :func:`fault_timeline` -- human-readable renderings of a run record's
  events (the ``repro trace`` and ``repro faults`` CLI output).

Instrumentation is injected as one :class:`Observer` of tracer and
ledger: the Monitor, Adaptation Engine, staging area and fault injector
each take ``observer=``, and the workflow driver and the multi-tenant
service build one from their optional ``tracer=`` / ``ledger=``
arguments.  A hook left out is a null object that accepts every call
and does nothing, so call sites never branch on it (:mod:`.observer`).
A ``metrics=`` registry is filled from the components' own tallies
when a run ends, and a ``profiler=`` is wired from outside by
:func:`instrument`; neither is part of the observer.

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
from repro.observability.observer import NULL_OBSERVER, Observer, instrument
from repro.observability.profiler import (
    PROFILE_SPANS,
    Profiler,
    SpanStat,
    merge_worker_profiles,
    render_hot_spans,
    render_profile,
    unregistered_spans,
)
from repro.observability.record import (
    RECORD_SCHEMA,
    diff_records,
    load_record,
    prometheus_text,
    render_diff,
)
from repro.observability.timeline import (
    decision_timeline,
    fault_timeline,
    occupancy_gantt,
)
from repro.observability.tracer import Tracer

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
    "RECORD_SCHEMA",
    "RegretSummary",
    "SpanStat",
    "TraceEvent",
    "Tracer",
    "calibrate",
    "calibration_report",
    "check_budgets",
    "decision_timeline",
    "diff_records",
    "fault_timeline",
    "instrument",
    "load_budgets",
    "load_record",
    "merge_worker_metrics",
    "merge_worker_profiles",
    "occupancy_gantt",
    "placement_regret",
    "prometheus_text",
    "render_budget_report",
    "render_diff",
    "render_hot_spans",
    "render_profile",
    "unregistered_spans",
]
