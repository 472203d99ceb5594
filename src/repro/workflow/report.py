"""Result export: the result payload and the run record.

:func:`result_to_json` serializes a :class:`~repro.workflow.metrics.
WorkflowResult` so a downstream user can consume it outside Python.
:func:`run_record` wraps that payload with everything the run's
observability hooks captured into one :data:`~repro.observability.
record.RECORD_SCHEMA` object -- what ``python -m repro trace|audit|
faults|profile --record PATH`` writes and :mod:`repro.observability.
record` reads, diffs and exports.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.hpc.kernel import KernelCounters
from repro.observability.calibration import calibrate, placement_regret
from repro.observability.ledger import PredictionLedger
from repro.observability.metrics import MetricsRegistry
from repro.observability.profiler import Profiler
from repro.observability.record import RECORD_SCHEMA
from repro.observability.tracer import Tracer
from repro.workflow.metrics import WorkflowResult

__all__ = ["result_to_json", "run_record"]


def result_to_json(result: WorkflowResult, path: str | Path | None = None) -> str:
    """Serialize a result (optionally writing it to ``path``).

    ``analysis_done_at`` serializes as JSON ``null`` when the analysis
    never completed; ``placement`` serializes as the
    :class:`~repro.core.actions.Placement` enum's value.
    """
    text = json.dumps(_result_payload(result), indent=2)
    if path is not None:
        Path(path).write_text(text)
    return text


def _result_payload(result: WorkflowResult) -> dict[str, Any]:
    """The :func:`result_to_json` payload as JSON-native values."""
    return {
        "mode": result.mode,
        "end_to_end_seconds": result.end_to_end_seconds,
        "total_sim_seconds": result.total_sim_seconds,
        "data_moved_bytes": result.data_moved_bytes,
        "utilization_efficiency": result.utilization_efficiency,
        "staging_idle_core_seconds": result.staging_idle_core_seconds,
        "staging_total_cores": result.staging_total_cores,
        "pfs_bytes_written": result.pfs_bytes_written,
        "pfs_bytes_read": result.pfs_bytes_read,
        "energy_joules": result.energy_joules,
        "energy_breakdown": dict(result.energy_breakdown),
        "steps": [
            {
                "step": m.step,
                "sim_seconds": m.sim_seconds,
                "factor": m.factor,
                "placement": m.placement.value,
                "staging_cores": m.staging_cores,
                "data_bytes_full": m.data_bytes_full,
                "data_bytes_out": m.data_bytes_out,
                "insitu_seconds": m.insitu_seconds,
                "block_seconds": m.block_seconds,
                "analysis_done_at": m.analysis_done_at,
            }
            for m in result.steps
        ],
    }


def run_record(
    result: WorkflowResult,
    *,
    label: str = "",
    counters: KernelCounters | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    ledger: PredictionLedger | None = None,
    profiler: Profiler | None = None,
) -> dict[str, Any]:
    """One run's :data:`~repro.observability.record.RECORD_SCHEMA` record.

    ``counters`` is the run's ``sim.kernel.counters``; each hook left
    ``None`` leaves its sections empty.  The record holds only JSON
    values, so it compares equal to itself written and read back.
    """
    record: dict[str, Any] = {
        "schema": RECORD_SCHEMA,
        "label": label,
        "result": _result_payload(result),
        "events": [] if tracer is None else tracer.json_events(),
        "trace": (
            {} if tracer is None
            else {"capacity": tracer.capacity, "dropped": tracer.dropped}
        ),
        "metrics": {} if metrics is None else metrics.dump(),
        "spans": {} if profiler is None else profiler.dump(),
        "counters": {} if counters is None else counters.as_dict(),
        "calibration": {},
        "regret": {},
        "placements": {},
        "ledger": {},
    }
    if ledger is not None:
        record["calibration"] = {
            quantity: {**asdict(stats), "ema_curve": list(stats.ema_curve)}
            for quantity, stats in calibrate(ledger).items()
        }
        record["regret"] = asdict(placement_regret(ledger))
        record["placements"] = {str(p.step): p.chosen for p in ledger.placements}
        record["ledger"] = ledger.as_dict()
    return record
