"""The benchmark's three workloads.

Each workload runs in *episodes*: a fresh set-up (inputs built from the
seed, then one untimed warm-up unit) followed by ``units`` timed units.
``unit`` does the program's work and returns its raw output; ``check``
turns that output into a digest plus exact per-layer counts, outside
the timed region.  Every call into a layer is timed from outside
through the ``tracer`` (a :class:`spans.SpanRecorder` in traced
episodes, :data:`spans.NULL_TRACER` otherwise); no span lives in the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.analysis.downsample import blockwise_stride_reconstruction
from repro.analysis.entropy import block_entropies, entropy_downsample_factors
from repro.analysis.fidelity import blockwise_reconstruction_errors
from repro.analysis.isosurface import extract_isosurface
from repro.core.preferences import UserHints, UserPreferences
from repro.experiments import fig_tenants
from repro.experiments.common import (
    ANALYSIS_COST_PER_CELL,
    SCALES,
    advection_trace,
    default_hints,
)
from repro.experiments.fig1_memory import _gas_stepper
from repro.hpc.systems import titan
from repro.observability import MetricsRegistry
from repro.service import WorkflowService
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import CoupledWorkflow
from repro.workflow.report import result_to_json

from spans import NULL_TRACER, ProfilerHook

#: Distinct seeded inputs per workload: ``--seed`` selects
#: ``seed % VARIANTS``, whose digests and counts reference.json holds.
VARIANTS = 16

#: Kernel event kinds reported as ``hpc.events.<kind>``.
EVENT_KINDS = ("control", "timer", "compute", "transfer", "staging", "tenant")


@dataclasses.dataclass
class Outcome:
    """What one unit's output checks to."""

    digest: str
    counts: dict[str, float]
    sim_steps: int  # simulation steps the unit advanced
    cell_updates: int  # cells those steps advanced


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


# -- amr-cold ------------------------------------------------------------------

class AmrCold:
    """Polytropic-gas AMR from initialization, experiment cache unused.

    The Figs. 1/5 configuration (``fig1_memory._gas_stepper``).  A unit
    is one regrid cycle (``regrid_interval`` steps) followed by Fig. 6's
    analysis chain on the level-0 density.  The seed does not change
    the input: every episode replays the same cycle sequence.
    """

    name = "amr-cold"
    fixed_sequence = True
    SIZES = {"full": (32, 16, 8), "tiny": (16, 4, 2)}  # n, ranks, units
    BLOCK = (8, 8, 8)
    FACTOR = 4

    def __init__(self, size: str, seed: int):
        self.n, self.nranks, self.units = self.SIZES[size]
        self.variant = 0

    def setup(self, tracer) -> None:
        stepper = _gas_stepper(self.n, self.nranks)
        h, solver = stepper.hierarchy, stepper.app
        tracer.wrap(stepper, "step", "amr.step")
        tracer.wrap(solver, "advance_boxes", "amr.advance")
        tracer.wrap(h, "fill_ghosts", "amr.ghost_fill")
        tracer.wrap(h, "regrid", "amr.regrid")
        tracer.wrap(solver, "tag_cells", "amr.regrid")
        tracer.wrap(h, "average_down", "amr.average_down")
        tracer.wrap(solver, "stable_dt", "amr.stable_dt")
        self.stepper = stepper

    def unit(self, tracer):
        stepper = self.stepper
        stats = [stepper.step() for _ in range(stepper.regrid_interval)]
        h = stepper.hierarchy
        field = h.levels[0].data.to_dense(h.level_domain(0))[0]
        with tracer.span("analysis.entropy"):
            entropies = block_entropies(field, self.BLOCK, bins=256)
            threshold = float(0.5 * (entropies.min() + entropies.max()))
            factors = entropy_downsample_factors(
                entropies, thresholds=[threshold], factors=[self.FACTOR, 1]
            )
        with tracer.span("analysis.reconstruct"):
            blockwise_reconstruction_errors(field, self.BLOCK, self.FACTOR)
            recon = blockwise_stride_reconstruction(
                field, self.BLOCK, self.FACTOR, block_mask=factors > 1
            )
        with tracer.span("analysis.isosurface"):
            iso = float(np.percentile(field, 90))
            _, tris_full = extract_isosurface(field, iso)
            _, tris_reduced = extract_isosurface(recon, iso)
        return stats, field, len(tris_full), len(tris_reduced)

    def check(self, output) -> Outcome:
        stats, field, tris_full, tris_reduced = output
        cells = sum(s.total_cells for s in stats)
        return Outcome(
            digest=_sha(field.tobytes(), f"{tris_full},{tris_reduced}".encode()),
            counts={
                "amr.cells_advanced": cells,
                "amr.boxes": sum(sum(s.boxes_per_level) for s in stats),
                "amr.halo_bytes": sum(s.halo_bytes for s in stats),
                "amr.regrids_changed": sum(s.regridded for s in stats),
                "analysis.triangles": tris_full + tris_reduced,
            },
            sim_steps=len(stats),
            cell_updates=cells,
        )


# -- shared workflow counts -----------------------------------------------------

def _workflow_counts(runs, kernels, networks) -> dict[str, float]:
    """Exact per-layer counts over ``(workflow, result)`` pairs and the
    kernels and networks they ran on."""
    workflows = [wf for wf, _ in runs]
    results = [result for _, result in runs]
    events = dict.fromkeys(EVENT_KINDS, 0)
    for kernel in kernels:
        for kind, count in kernel.counters.processed_by_kind().items():
            events[kind] = events.get(kind, 0) + count
    counts: dict[str, float] = {
        f"hpc.events.{kind}": events[kind] for kind in EVENT_KINDS
    }
    counts["hpc.bytes_moved"] = sum(net.total_bytes_moved for net in networks)
    counts["staging.bytes_ingested"] = sum(wf.staging.bytes_ingested for wf in workflows)
    counts["staging.jobs"] = sum(len(wf.staging.completed) for wf in workflows)
    counts["core.snapshots"] = sum(len(wf.monitor.history) for wf in workflows)
    counts["core.decisions"] = sum(
        len(wf.engine.decisions) for wf in workflows if wf.engine is not None
    )
    counts["workflow.stall_s"] = sum(
        m.block_seconds for r in results for m in r.steps
    )
    counts["staging.utilization"] = (
        sum(r.utilization_efficiency for r in results) / len(results)
    )
    return counts


def _trace_work(traces) -> tuple[int, int]:
    """Simulated steps and cells over ``traces``."""
    traces = list(traces)
    return (
        sum(len(t) for t in traces),
        sum(record.cells for t in traces for record in t),
    )


# -- paper-scales ----------------------------------------------------------------

class PaperScales:
    """The paper's figure modes on the advection traces of its scales.

    A unit is one pass over every (scale, mode) run, each a fresh
    ``CoupledWorkflow(config, trace).run()`` -- no experiment cache and
    no ``run_mode_at_scale`` memo answers it.  Variant 0 uses the
    paper's own trace seeds.  Traces come from ``advection_trace``,
    which computes afresh under ``REPRO_NO_CACHE=1``.
    """

    name = "paper-scales"
    fixed_sequence = False
    SIZES = {"full": (SCALES, 16), "tiny": (SCALES[:1], 2)}  # scales, units
    MODES = (
        (Mode.POST_PROCESSING, False),
        (Mode.STATIC_INSITU, False),
        (Mode.STATIC_INTRANSIT, False),
        (Mode.ADAPTIVE_MIDDLEWARE, False),
        (Mode.GLOBAL, True),
    )

    def __init__(self, size: str, seed: int):
        self.scales, self.units = self.SIZES[size]
        self.variant = seed % VARIANTS

    def setup(self, tracer) -> None:
        self.runs = []
        for scale in self.scales:
            seeded = dataclasses.replace(scale, seed=scale.seed + 1000 * self.variant)
            with tracer.span("workload.synth"):
                trace = advection_trace(seeded)
            for mode, hints in self.MODES:
                self.runs.append((
                    WorkflowConfig(
                        mode=mode,
                        sim_cores=scale.sim_cores,
                        staging_cores=scale.staging_cores,
                        spec=titan(),
                        analysis_cost_per_cell=ANALYSIS_COST_PER_CELL,
                        preferences=UserPreferences(),
                        hints=default_hints() if hints else UserHints(),
                    ),
                    trace,
                ))

    def unit(self, tracer):
        runs = []
        for config, trace in self.runs:
            with tracer.span("workflow.construct"):
                wf = CoupledWorkflow(config, trace)
            tracer.wrap(wf.sim, "run", "hpc.sim_run")
            tracer.wrap(wf.monitor, "snapshot", "core.snapshot")
            if wf.engine is not None:
                tracer.wrap(wf.engine, "adapt", "core.adapt")
            tracer.wrap(wf.staging, "submit", "staging.submit")
            tracer.wrap(wf, "finalize", "workflow.finalize")
            runs.append((wf, wf.run()))
        return runs

    def check(self, runs) -> Outcome:
        digest = _sha(*(result_to_json(result).encode() for _, result in runs))
        counts = _workflow_counts(
            runs,
            [wf.sim.kernel for wf, _ in runs],
            [wf.network for wf, _ in runs],
        )
        steps, cells = _trace_work(wf.trace for wf, _ in runs)
        return Outcome(digest, counts, steps, cells)


# -- tenant-fleet ----------------------------------------------------------------

class TenantFleet:
    """``fig_tenants``-shaped fleets on one shared 1024/64-core machine.

    Tenants alternate wide and narrow, belong to two users and arrive
    staggered; a unit runs the fleet once under every admission policy.
    """

    name = "tenant-fleet"
    fixed_sequence = False
    SIZES = {"full": (16, fig_tenants.STEPS, 12), "tiny": (4, 4, 2)}  # tenants, steps, units
    SPAN_NAMES = {
        "sim.run": "hpc.sim_run",
        "monitor.snapshot": "core.snapshot",
        "engine.adapt": "core.adapt",
        "staging.submit": "staging.submit",
    }

    def __init__(self, size: str, seed: int):
        self.tenants, self.steps, self.units = self.SIZES[size]
        self.variant = seed % VARIANTS

    def setup(self, tracer) -> None:
        self.fleet = []
        # fig_tenants memoizes its traces; call past the memo so every
        # set-up synthesizes.
        synthesize = fig_tenants._workload.__wrapped__
        for index in range(self.tenants):
            seed = fig_tenants.SEED + index + 1000 * self.variant
            with tracer.span("workload.synth"):
                trace = synthesize(seed, self.steps)
            self.fleet.append((fig_tenants._tenant_config(index), trace))

    def unit(self, tracer):
        hook = None if tracer is NULL_TRACER else ProfilerHook(tracer, self.SPAN_NAMES)
        runs = []
        for policy in fig_tenants.POLICY_NAMES:
            metrics = MetricsRegistry()
            service = WorkflowService(
                sim_cores=fig_tenants.POOL_SIM_CORES,
                staging_cores=fig_tenants.POOL_STAGING_CORES,
                policy=policy,
                starvation_wait=fig_tenants.STARVATION_WAIT,
                metrics=metrics,
                profiler=hook,
            )
            tracer.wrap(service, "submit", "service.submit")
            for index, (config, trace) in enumerate(self.fleet):
                service.submit(
                    f"tenant-{index}", config, trace,
                    arrival=index * fig_tenants.ARRIVAL_STAGGER,
                    user=f"user-{index % 2}",
                )
            runs.append((service, metrics, service.run()))
        return runs

    def check(self, runs) -> Outcome:
        digest = _sha(*(
            json.dumps(report.as_dict(), sort_keys=True).encode()
            for _, _, report in runs
        ))
        tenants = [t for service, _, _ in runs for t in service.tenants]
        counts = _workflow_counts(
            [(t.workflow, t.result) for t in tenants],
            [service.sim.kernel for service, _, _ in runs],
            [service.network for service, _, _ in runs],
        )
        counts["service.queue_wait_s"] = sum(
            t.queue_wait for _, _, report in runs for t in report.tenants
        )
        counts["service.admissions"] = sum(len(r.tenants) for _, _, r in runs)
        counts["service.grant_expansions"] = sum(
            int(m.counter("service.grant_expansions").value) for _, m, _ in runs
        )
        counts["service.starvations"] = sum(r.starvations for _, _, r in runs)
        steps, cells = _trace_work(t.trace for t in tenants)
        return Outcome(digest, counts, steps, cells)


WORKLOADS = {w.name: w for w in (AmrCold, PaperScales, TenantFleet)}
