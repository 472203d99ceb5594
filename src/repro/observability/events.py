"""The cross-layer trace event schema.

A :class:`TraceEvent` is one typed, timestamped record of something the
runtime did: a workflow step starting, the Monitor assembling a snapshot,
the Adaptation Engine committing a decision (with the inputs it decided
on), the staging area ingesting or draining a job, the simulation
stalling on staging memory.  Timestamps are *simulated* seconds -- the
same clock every other quantity in the reproduction uses -- so traces
line up exactly with the metrics the paper reports.

:data:`EVENT_KINDS` is the closed registry of event kinds the built-in
instrumentation emits; ``docs/observability.md`` documents each one and
the docs-consistency test keeps the two in sync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "ADAPT_ACTION",
    "ADAPT_DECISION",
    "EVENT_KINDS",
    "FAULT_CLEARED",
    "FAULT_INJECTED",
    "MONITOR_SAMPLE",
    "PLACEMENT_FALLBACK",
    "RUN_END",
    "RUN_START",
    "SIM_STALL",
    "STAGING_INGEST",
    "STAGING_JOB_ABORT",
    "STAGING_JOB_END",
    "STAGING_JOB_START",
    "STAGING_RESIZE",
    "STAGING_RETRY",
    "STAGING_SUBMIT",
    "STEP_END",
    "STEP_START",
    "SWEEP_POINT",
    "TENANT_ADMITTED",
    "TENANT_COMPLETED",
    "TENANT_GRANT",
    "TENANT_QUEUED",
    "TENANT_REJECTED",
    "TENANT_STARVED",
    "TENANT_SUBMITTED",
    "TRIGGER_FIRED",
    "TRIGGER_RECALIBRATED",
    "TRIGGER_SUPPRESSED",
    "TraceEvent",
]

# -- event kinds ---------------------------------------------------------------

RUN_START = "run.start"
RUN_END = "run.end"
STEP_START = "step.start"
STEP_END = "step.end"
SIM_STALL = "sim.stall"
MONITOR_SAMPLE = "monitor.sample"
ADAPT_DECISION = "adapt.decision"
ADAPT_ACTION = "adapt.action"
STAGING_SUBMIT = "staging.submit"
STAGING_INGEST = "staging.ingest"
STAGING_JOB_START = "staging.job_start"
STAGING_JOB_END = "staging.job_end"
STAGING_RESIZE = "staging.resize"
FAULT_INJECTED = "fault.injected"
FAULT_CLEARED = "fault.cleared"
STAGING_RETRY = "staging.retry"
STAGING_JOB_ABORT = "staging.job_abort"
PLACEMENT_FALLBACK = "placement.fallback"
SWEEP_POINT = "sweep.point"
TRIGGER_FIRED = "trigger.fired"
TRIGGER_SUPPRESSED = "trigger.suppressed"
TRIGGER_RECALIBRATED = "trigger.recalibrated"
TENANT_SUBMITTED = "tenant.submitted"
TENANT_QUEUED = "tenant.queued"
TENANT_ADMITTED = "tenant.admitted"
TENANT_REJECTED = "tenant.rejected"
TENANT_GRANT = "tenant.grant"
TENANT_STARVED = "tenant.starved"
TENANT_COMPLETED = "tenant.completed"

#: Every kind the built-in instrumentation emits, with a one-line meaning.
EVENT_KINDS: dict[str, str] = {
    RUN_START: "a workflow run begins (mode, core counts, trace length)",
    RUN_END: "a workflow run ends (end-to-end time, data moved)",
    STEP_START: "a simulation step begins computing",
    STEP_END: "a step's analysis was dispatched (placement, factor, costs)",
    SIM_STALL: "the simulation blocked (staging memory full or PFS write)",
    MONITOR_SAMPLE: "the Monitor assembled an OperationalState snapshot",
    ADAPT_DECISION: "the Adaptation Engine committed a decision + its inputs",
    ADAPT_ACTION: "one layer's action within a decision (with its reasoning)",
    STAGING_SUBMIT: "a step's data was submitted for in-transit analysis",
    STAGING_INGEST: "an asynchronous staging ingest transfer completed",
    STAGING_JOB_START: "a staging job started service on the active cores",
    STAGING_JOB_END: "a staging job finished and released its memory",
    STAGING_RESIZE: "the resource layer resized the active staging cores",
    FAULT_INJECTED: "the fault injector applied a planned fault",
    FAULT_CLEARED: "a windowed fault (degrade/straggler) ended, or cores "
    "were restored",
    STAGING_RETRY: "a staging ingest attempt failed and is being retried "
    "with backoff",
    STAGING_JOB_ABORT: "a running staging job was aborted by core loss and "
    "requeued",
    PLACEMENT_FALLBACK: "the driver degraded a staging placement to in-situ "
    "(staging unreachable)",
    SWEEP_POINT: "the sweep runner finished one grid point (experiment, "
    "index, worker pid, wall seconds)",
    TRIGGER_FIRED: "a trigger policy requested a full adaptation (policy, "
    "reason, indicator value, sampling budget spent)",
    TRIGGER_SUPPRESSED: "a trigger policy held the previous adaptation "
    "(policy, reason, indicator value, sampling budget spent)",
    TRIGGER_RECALIBRATED: "the self-calibration loop adjusted trigger "
    "thresholds or the estimator bias from measured ledger feedback",
    TENANT_SUBMITTED: "a tenant workflow arrived at the multi-tenant "
    "service (name, requested cores)",
    TENANT_QUEUED: "an arriving tenant entered the bounded admission "
    "queue (queue depth)",
    TENANT_ADMITTED: "a tenant was admitted onto the shared machine "
    "(staging grant, queue wait)",
    TENANT_REJECTED: "an arriving tenant was turned away (admission "
    "queue full)",
    TENANT_GRANT: "a tenant's staging grant was renegotiated against "
    "the shared pool (borrowed or returned cores)",
    TENANT_STARVED: "a queued tenant's wait crossed the starvation "
    "threshold without being admitted",
    TENANT_COMPLETED: "an admitted tenant finished (time to solution, "
    "queue wait, grant)",
}


@dataclass(frozen=True)
class TraceEvent:
    """One typed, timestamped record in a trace.

    ``seq`` is the emission sequence number -- it totally orders events,
    including simultaneous ones (the event kernel breaks time ties by
    insertion order, and ``seq`` preserves exactly that order).
    """

    seq: int
    ts: float
    kind: str
    step: int | None = None
    fields: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation (one run-record event's payload)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "step": self.step,
            "fields": dict(self.fields),
        }

