"""The coupled simulation + analysis workflow driver and its metrics.

:class:`~repro.workflow.driver.CoupledWorkflow` replays a workload trace
through the simulated machine under one of six execution modes (static
in-situ, static in-transit, per-layer local adaptation, or global
cross-layer adaptation) and produces a
:class:`~repro.workflow.metrics.WorkflowResult` with the quantities the
paper's evaluation reports: end-to-end time, end-to-end overhead, total
data movement, staging utilization efficiency (Eq. 12) and per-step core
usage (Table 2).
"""

from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import CoupledWorkflow, run_workflow
from repro.workflow.metrics import StepMetrics, WorkflowResult, core_usage_histogram
from repro.workflow.report import result_to_json, run_record
from repro.workflow.triggers import (
    TRIGGER_POLICIES,
    CalibrationFeedback,
    EntropyPercentile,
    FixedInterval,
    Imbalance,
    StagingPressure,
    TriggerDecision,
    TriggerIndicators,
    TriggerPolicy,
    build_trigger,
    percentile_sample_size,
)

__all__ = [
    "CalibrationFeedback",
    "CoupledWorkflow",
    "EntropyPercentile",
    "FixedInterval",
    "Imbalance",
    "Mode",
    "StagingPressure",
    "StepMetrics",
    "TRIGGER_POLICIES",
    "TriggerDecision",
    "TriggerIndicators",
    "TriggerPolicy",
    "WorkflowConfig",
    "WorkflowResult",
    "build_trigger",
    "core_usage_histogram",
    "percentile_sample_size",
    "result_to_json",
    "run_record",
    "run_workflow",
]
