"""Ablations over the design choices DESIGN.md calls out.

Four sweeps, each isolating one knob of the system:

- :func:`staging_ratio_sweep` -- the 16:1 simulation-to-staging ratio the
  paper fixes; shows where static in-transit placement breaks down and
  how much adaptation recovers at 8:1 / 16:1 / 32:1.
- :func:`monitor_interval_sweep` -- the Monitor's sampling period
  ("after every specified number of simulation time steps"): stale
  decisions vs adaptation overhead.
- :func:`entropy_threshold_sweep` -- the entropy threshold of the
  automatic application-layer mechanism: bytes saved vs fidelity lost.
- :func:`coordination_sweep` -- root-leaf ordered execution (Section 4.4)
  vs naive simultaneous triggering of all three layers on the *same*
  unmodified snapshot: the ordered plan lets downstream mechanisms see
  upstream effects (reduced S_data), the naive one over-allocates.
"""

from __future__ import annotations

import numpy as np

from repro.core.actions import Placement
from repro.core.preferences import UserHints
from repro.experiments.common import (
    ANALYSIS_COST_PER_CELL,
    SCALES,
    default_hints,
    render_table,
)
from repro.hpc.systems import titan
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import run_workflow
from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace

__all__ = [
    "captured_trace_sweep",
    "coordination_sweep",
    "entropy_threshold_sweep",
    "estimator_bias_sweep",
    "hybrid_placement_sweep",
    "monitor_interval_sweep",
    "reduction_type_sweep",
    "render",
    "staging_ratio_sweep",
]

_SCALE = SCALES[1]  # the 4K-core configuration


def _trace():
    from repro.experiments.common import advection_trace

    return advection_trace(_SCALE)


def staging_ratio_sweep(ratios: tuple[int, ...] = (8, 16, 32)) -> list[dict]:
    """Vary staging cores at fixed simulation cores."""
    rows = []
    for ratio in ratios:
        staging = max(1, _SCALE.sim_cores // ratio)
        for mode in (Mode.STATIC_INTRANSIT, Mode.ADAPTIVE_MIDDLEWARE):
            config = WorkflowConfig(
                mode=mode,
                sim_cores=_SCALE.sim_cores,
                staging_cores=staging,
                spec=titan(),
                analysis_cost_per_cell=ANALYSIS_COST_PER_CELL,
            )
            result = run_workflow(config, _trace())
            rows.append({
                "ratio": f"{ratio}:1",
                "mode": mode.value,
                "overhead_s": result.overhead_seconds,
                "end_to_end_s": result.end_to_end_seconds,
                "moved_gib": result.data_moved_bytes / 2**30,
            })
    return rows


def monitor_interval_sweep(intervals: tuple[int, ...] = (1, 2, 4, 8)) -> list[dict]:
    """Vary the Monitor's sampling period for the adaptive placement."""
    rows = []
    for interval in intervals:
        config = WorkflowConfig(
            mode=Mode.ADAPTIVE_MIDDLEWARE,
            sim_cores=_SCALE.sim_cores,
            staging_cores=_SCALE.staging_cores,
            spec=titan(),
            analysis_cost_per_cell=ANALYSIS_COST_PER_CELL,
            hints=UserHints(monitor_interval=interval),
        )
        result = run_workflow(config, _trace())
        rows.append({
            "interval": interval,
            "overhead_s": result.overhead_seconds,
            "end_to_end_s": result.end_to_end_seconds,
            "insitu_steps": result.placement_counts()[Placement.IN_SITU],
        })
    return rows


def entropy_threshold_sweep(
    percentiles: tuple[int, ...] = (10, 30, 50, 70, 90),
    n: int = 32,
    nsteps: int = 15,
) -> list[dict]:
    """Sweep the entropy threshold on the real gas density field."""
    from repro.analysis.downsample import blockwise_stride_reconstruction
    from repro.analysis.entropy import block_entropies, entropy_downsample_factors
    from repro.experiments.fig6_entropy import density_field

    field = density_field(n=n, nsteps=nsteps)
    block = 8
    entropies = block_entropies(field, (block, block, block), bins=256)
    rows = []
    for pct in percentiles:
        threshold = float(np.percentile(entropies, pct))
        factors = entropy_downsample_factors(entropies, [threshold], [4, 1])
        mask = factors > 1
        recon = blockwise_stride_reconstruction(
            field, (block, block, block), 4, block_mask=mask
        )
        # Each reduced block saves (1 - 1/64); the product is exact, so
        # this equals the per-block accumulation it replaces.
        saved = float(np.count_nonzero(mask)) * (1 - 1 / 64)
        span = field.max() - field.min()
        rms = float(np.sqrt(np.mean((field - recon) ** 2))) / max(span, 1e-12)
        rows.append({
            "threshold_pct": pct,
            "threshold_bits": threshold,
            "reduced_blocks_pct": 100 * float((factors > 1).mean()),
            "bytes_saved_pct": 100 * saved / entropies.size,
            "rms_error": rms,
        })
    return rows


def estimator_bias_sweep(
    biases: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> list[dict]:
    """Sensitivity of the adaptive placement to systematic misestimation.

    The middleware policy decides from *estimated* times (the paper uses
    Chombo's embedded performance tools); this sweep multiplies every
    analysis-time estimate by a bias factor and measures how gracefully
    the adaptation degrades.
    """
    rows = []
    for bias in biases:
        config = WorkflowConfig(
            mode=Mode.ADAPTIVE_MIDDLEWARE,
            sim_cores=_SCALE.sim_cores,
            staging_cores=_SCALE.staging_cores,
            spec=titan(),
            analysis_cost_per_cell=ANALYSIS_COST_PER_CELL,
            estimator_bias=bias,
        )
        result = run_workflow(config, _trace())
        rows.append({
            "bias": bias,
            "overhead_s": result.overhead_seconds,
            "end_to_end_s": result.end_to_end_seconds,
            "insitu_steps": result.placement_counts()[Placement.IN_SITU],
        })
    return rows


def captured_trace_sweep() -> list[dict]:
    """The placement comparison on a *captured* (real-solver) trace.

    The scale experiments use the calibrated synthetic workload family;
    this sweep validates the synthetic results against dynamics captured
    from the actual Godunov run, rescaled to the 4K-core configuration.
    """
    from repro.experiments.fig1_memory import captured_gas_trace
    from repro.workload.scale import scale_trace

    base = captured_gas_trace(nsteps=30)
    trace = scale_trace(base, nranks=4096, cell_factor=2.0e4,
                        name="captured-4k", seed=9, jitter_sigma=0.4)
    rows = []
    for mode in (Mode.STATIC_INSITU, Mode.STATIC_INTRANSIT,
                 Mode.ADAPTIVE_MIDDLEWARE):
        config = WorkflowConfig(
            mode=mode,
            sim_cores=4096,
            staging_cores=256,
            spec=titan(),
            # The Godunov solver costs 8 work units per cell; 0.45 puts the
            # in-transit/sim ratio near 16 * 0.45 / 8 = 0.9, the same regime
            # as the synthetic calibration.
            analysis_cost_per_cell=0.45,
        )
        result = run_workflow(config, trace)
        rows.append({
            "mode": mode.value,
            "overhead_s": result.overhead_seconds,
            "end_to_end_s": result.end_to_end_seconds,
            "moved_gib": result.data_moved_bytes / 2**30,
        })
    return rows


def hybrid_placement_sweep() -> list[dict]:
    """Binary vs hybrid (in-situ + in-transit) placement.

    The paper lists hybrid among the placement options (Section 3); this
    sweep quantifies what the finer-grained split buys over the
    all-or-nothing decisions of Section 4.2.  The workload grows its
    analysis load steeply, so late steps sit exactly in hybrid's regime:
    part of the work still fits the shrinking hidden window.
    """
    trace = synthetic_amr_trace(SyntheticAMRConfig(
        steps=25, nranks=1024, base_cells=2e7, sim_cost_per_cell=1.0,
        growth=2.0, analysis_growth_exponent=1.0, seed=0,
    ))
    rows = []
    for hybrid in (False, True):
        config = WorkflowConfig(
            mode=Mode.ADAPTIVE_MIDDLEWARE,
            sim_cores=1024,
            staging_cores=64,
            spec=titan(),
            analysis_cost_per_cell=0.035,
            hybrid_placement=hybrid,
        )
        result = run_workflow(config, trace)
        counts = result.placement_counts()
        rows.append({
            "policy": "hybrid" if hybrid else "binary",
            "overhead_s": result.overhead_seconds,
            "end_to_end_s": result.end_to_end_seconds,
            "moved_gib": result.data_moved_bytes / 2**30,
            "hybrid_steps": counts[Placement.HYBRID],
        })
    return rows


def reduction_type_sweep(n: int = 32, nsteps: int = 15) -> list[dict]:
    """Down-sampling vs error-bounded compression at matched reduction.

    Section 3 lists both as application-layer reduction parameters
    ("down-sample factor, compression rate, etc.").  On the real blast
    field we compare, per achieved size reduction, the information lost:
    compression adapts to local smoothness and preserves far more than
    stride sampling at the same byte budget.
    """
    from repro.analysis.compression import compress_field, decompress_field
    from repro.analysis.downsample import downsample_stride, upsample_nearest
    from repro.experiments.fig6_entropy import density_field

    field = density_field(n=n, nsteps=nsteps)
    span = float(field.max() - field.min())
    rows: list[dict] = []
    for factor in (2, 4):
        reduced = downsample_stride(field, factor)
        recon = upsample_nearest(reduced, factor, target_shape=field.shape)
        ds_ratio = field.nbytes / reduced.nbytes
        ds_err = float(np.sqrt(np.mean((field - recon) ** 2))) / span
        # Find a tolerance whose compressed size matches the downsample.
        budget = reduced.nbytes
        tolerance, compressed = None, None
        for t in (1e-5, 1e-4, 1e-3, 1e-2, 5e-2):
            c = compress_field(field, t)
            if c.nbytes <= budget:
                tolerance, compressed = t, c
                break
        c_err = float(
            np.sqrt(np.mean((field - decompress_field(compressed)) ** 2))
        ) / span
        rows.append({
            "reduction": f"{ds_ratio:.0f}x",
            "downsample_error": ds_err,
            "compression_tolerance": tolerance,
            "compression_bytes": compressed.nbytes,
            "compression_error": c_err,
        })
    return rows


def coordination_sweep() -> list[dict]:
    """Root-leaf ordered cross-layer execution vs naive simultaneous firing.

    The naive variant runs all three policies on the same unmodified
    snapshot -- the resource layer sizes staging for *full-resolution*
    data even though the application layer is about to reduce it.
    """
    from repro.core.engine import AdaptationEngine
    from repro.core.mechanisms import Layer

    trace = _trace()
    hints = default_hints()

    ordered_cfg = WorkflowConfig(
        mode=Mode.GLOBAL,
        sim_cores=_SCALE.sim_cores,
        staging_cores=_SCALE.staging_cores,
        spec=titan(),
        analysis_cost_per_cell=ANALYSIS_COST_PER_CELL,
        hints=hints,
    )
    ordered = run_workflow(ordered_cfg, trace)

    # Naive: monkey-patch the engine's adapt to skip inter-mechanism state
    # propagation (every policy sees the raw snapshot).
    class NaiveEngine(AdaptationEngine):
        def adapt(self, state):
            from repro.core.engine import AdaptationDecision

            decision = AdaptationDecision(step=state.step)
            for layer in self.plan:
                if layer is Layer.APPLICATION:
                    action = self.application.decide(state)
                    decision.factor = action.factor
                elif layer is Layer.RESOURCE:
                    action = self.resource.decide(state)
                    decision.staging_cores = action.cores
                elif layer is Layer.MIDDLEWARE:
                    action = self.middleware.decide(state)
                    decision.placement = action.placement
                decision.actions.append(action)
            self.decisions.append(decision)
            return decision

    from repro.workflow.driver import CoupledWorkflow

    naive_wf = CoupledWorkflow(ordered_cfg, trace)
    naive_wf.engine = NaiveEngine(preferences=ordered_cfg.preferences, hints=hints)
    naive = naive_wf.run()

    def mean_cores(result):
        return float(result.staging_cores_series().mean())

    return [
        {
            "scheme": "root-leaf ordered (paper 4.4)",
            "overhead_s": ordered.overhead_seconds,
            "moved_gib": ordered.data_moved_bytes / 2**30,
            "mean_staging_cores": mean_cores(ordered),
        },
        {
            "scheme": "naive simultaneous",
            "overhead_s": naive.overhead_seconds,
            "moved_gib": naive.data_moved_bytes / 2**30,
            "mean_staging_cores": mean_cores(naive),
        },
    ]


#: Every sweep, in report order (the sweep grid and ``render`` both
#: follow this order).
_SWEEP_ORDER = (
    ("staging_ratio", staging_ratio_sweep),
    ("monitor_interval", monitor_interval_sweep),
    ("entropy_threshold", entropy_threshold_sweep),
    ("coordination", coordination_sweep),
    ("reduction_type", reduction_type_sweep),
    ("hybrid_placement", hybrid_placement_sweep),
    ("estimator_bias", estimator_bias_sweep),
    ("captured_trace", captured_trace_sweep),
)


def grid() -> list[dict]:
    """Sweep protocol: one point per ablation sweep."""
    return [{"sweep": name} for name, _ in _SWEEP_ORDER]


def run_point(params: dict) -> list[dict]:
    """Sweep protocol: run one named ablation sweep (worker-side)."""
    return dict(_SWEEP_ORDER)[params["sweep"]]()


def merge(results: list) -> list[list[dict]]:
    """Sweep protocol: grid-ordered row sets, one per sweep."""
    return list(results)


def render(rowsets: list[list[dict]]) -> str:
    """Format the combined report from grid-ordered sweep row sets."""
    sections = []
    (rows_ratio, rows_interval, rows_entropy, rows_coord, rows_reduction,
     rows_hybrid, rows_bias, rows_captured) = rowsets

    rows = rows_ratio
    sections.append(render_table(
        ["ratio", "mode", "overhead (s)", "end-to-end (s)", "moved (GiB)"],
        [[r["ratio"], r["mode"], f"{r['overhead_s']:.1f}",
          f"{r['end_to_end_s']:.1f}", f"{r['moved_gib']:.1f}"] for r in rows],
        title="Ablation: staging ratio",
    ))

    rows = rows_interval
    sections.append(render_table(
        ["interval", "overhead (s)", "end-to-end (s)", "in-situ steps"],
        [[str(r["interval"]), f"{r['overhead_s']:.1f}",
          f"{r['end_to_end_s']:.1f}", str(r["insitu_steps"])] for r in rows],
        title="Ablation: monitor sampling interval",
    ))

    rows = rows_entropy
    sections.append(render_table(
        ["threshold pct", "bits", "blocks reduced", "bytes saved", "nRMS error"],
        [[str(r["threshold_pct"]), f"{r['threshold_bits']:.2f}",
          f"{r['reduced_blocks_pct']:.0f}%", f"{r['bytes_saved_pct']:.0f}%",
          f"{r['rms_error']:.4f}"] for r in rows],
        title="Ablation: entropy threshold",
    ))

    rows = rows_coord
    sections.append(render_table(
        ["scheme", "overhead (s)", "moved (GiB)", "mean staging cores"],
        [[r["scheme"], f"{r['overhead_s']:.1f}", f"{r['moved_gib']:.1f}",
          f"{r['mean_staging_cores']:.0f}"] for r in rows],
        title="Ablation: cross-layer coordination scheme",
    ))

    rows = rows_reduction
    sections.append(render_table(
        ["reduction", "downsample nRMS", "compression tol", "compression nRMS"],
        [[r["reduction"], f"{r['downsample_error']:.4f}",
          f"{r['compression_tolerance']:.0e}", f"{r['compression_error']:.5f}"]
         for r in rows],
        title="Ablation: reduction type (down-sampling vs compression)",
    ))

    rows = rows_hybrid
    sections.append(render_table(
        ["policy", "overhead (s)", "end-to-end (s)", "moved (GiB)", "hybrid steps"],
        [[r["policy"], f"{r['overhead_s']:.1f}", f"{r['end_to_end_s']:.1f}",
          f"{r['moved_gib']:.1f}", str(r["hybrid_steps"])] for r in rows],
        title="Ablation: binary vs hybrid placement",
    ))

    rows = rows_bias
    sections.append(render_table(
        ["estimate bias", "overhead (s)", "end-to-end (s)", "in-situ steps"],
        [[f"{r['bias']:g}x", f"{r['overhead_s']:.1f}",
          f"{r['end_to_end_s']:.1f}", str(r["insitu_steps"])] for r in rows],
        title="Ablation: estimator misestimation sensitivity",
    ))

    rows = rows_captured
    sections.append(render_table(
        ["mode", "overhead (s)", "end-to-end (s)", "moved (GiB)"],
        [[r["mode"], f"{r['overhead_s']:.1f}", f"{r['end_to_end_s']:.1f}",
          f"{r['moved_gib']:.1f}"] for r in rows],
        title="Validation: placement comparison on a captured (real-solver) trace",
    ))

    return "\n\n".join(sections)
