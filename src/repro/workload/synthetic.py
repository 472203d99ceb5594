"""Synthetic AMR-like workload generator.

The 2K-16K-core experiments of the paper cannot be re-run directly, so we
generate traces with the qualitative structure of an AMR run:

- total cells grow as the refined region expands -- a logistic envelope
  with multiplicative bursts at regrid steps (Chombo regrids every k
  steps, and refinement arrives in chunks, not smoothly);
- per-rank memory is lognormally imbalanced (Figure 1 shows a heavy
  right tail across ranks);
- occasional coarsening shrinks the grid (refined regions "maybe further
  refined or coarsened").

The only trace captured from a real solver is the 3-D polytropic-gas run
(:func:`~repro.experiments.fig1_memory.captured_gas_trace`), and it is
the reference the family is measured against.  The family is not fitted
to it: ``growth``, ``burst_sigma``, ``imbalance_sigma`` and
``coarsen_probability`` are stated assumptions.  A 16-rank capture is
nearly balanced, so imbalance at thousands of ranks is argued from the
paper's Fig. 1 instead (see :func:`~repro.workload.scale.scale_trace`).
``tests/workload/test_calibration.py`` measures the gap between the
40-step gas capture and the four ``SCALES`` traces of
:func:`~repro.experiments.common.advection_trace`; growth is max over
first-step cells, log-sigma the per-step spread of ``log(rank_bytes)``
and peak/mean the per-step max over mean rank bytes, both averaged over
steps:

==========  =========  =========
statistic   gas        family
==========  =========  =========
growth      1.7-1.9    2.5-3.3
log-sigma   0.03-0.06  0.42-0.48
peak/mean   1.02-1.1   4-6
==========  =========  =========

Everything is seeded; identical configs give identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.workload.trace import StepRecord, WorkloadTrace

__all__ = ["SyntheticAMRConfig", "synthetic_amr_trace"]


@dataclass(frozen=True)
class SyntheticAMRConfig:
    """Parameters of the synthetic workload.

    ``base_cells`` is the level-0 grid size; the total grows to
    ``(1 + growth) * base_cells`` following a logistic curve centred at
    ``midpoint_step`` with ``burst_sigma`` multiplicative noise applied at
    regrid steps.  ``sim_cost_per_cell`` converts cells to work units
    (the gas solver's ``work_per_cell`` is 8; the paper-scale traces of
    :func:`~repro.experiments.common.advection_trace` set 12);
    ``state_bytes_per_cell`` sizes the resident simulation state while
    ``output_bytes_per_cell`` sizes the published analysis variable.
    """

    steps: int
    nranks: int
    base_cells: float
    sim_cost_per_cell: float = 8.0
    state_bytes_per_cell: float = 80.0  # 5 components * 8 B * state+scratch
    output_bytes_per_cell: float = 8.0
    growth: float = 1.5
    midpoint_step: float | None = None
    steepness: float = 0.25
    regrid_interval: int = 4
    burst_sigma: float = 0.12
    coarsen_probability: float = 0.15
    imbalance_sigma: float = 0.45
    # Spread of the per-step analysis intensity (isosurface complexity);
    # drawn lognormal with unit mean.  0 disables the variation.
    analysis_sigma: float = 0.5
    # Refinement coupling of analysis cost: intensity gains a factor
    # (cells / base_cells) ** exponent.  As the shock surface grows with
    # refinement, per-cell visualization cost rises relative to the
    # solver -- this is what drives Fig. 9's growing staging demand.
    analysis_growth_exponent: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise TraceError(f"steps must be >= 1, got {self.steps}")
        if self.nranks < 1:
            raise TraceError(f"nranks must be >= 1, got {self.nranks}")
        if self.base_cells <= 0:
            raise TraceError(f"base_cells must be positive, got {self.base_cells}")
        if self.growth < 0:
            raise TraceError(f"growth must be >= 0, got {self.growth}")
        if self.regrid_interval < 1:
            raise TraceError(f"regrid_interval must be >= 1, got {self.regrid_interval}")


def synthetic_amr_trace(config: SyntheticAMRConfig, name: str = "synthetic") -> WorkloadTrace:
    """Generate a trace from ``config`` (deterministic in the seed)."""
    rng = np.random.default_rng(config.seed)
    midpoint = config.midpoint_step if config.midpoint_step is not None else config.steps / 2

    records = []
    refinement_multiplier = 1.0
    epoch_intensity = 1.0
    for step in range(1, config.steps + 1):
        envelope = 1.0 + config.growth / (
            1.0 + np.exp(-config.steepness * (step - midpoint))
        )
        if (step - 1) % config.regrid_interval == 0:
            # Regrid: refinement arrives (or recedes) in a burst, and the
            # feature (isosurface) complexity driving analysis cost changes.
            burst = rng.lognormal(mean=0.0, sigma=config.burst_sigma)
            if rng.random() < config.coarsen_probability:
                burst = 1.0 / burst
            refinement_multiplier = burst
            if config.analysis_sigma > 0:
                # Unit-mean lognormal: mean of LN(mu, s) is exp(mu + s^2/2).
                epoch_intensity = float(rng.lognormal(
                    mean=-config.analysis_sigma**2 / 2,
                    sigma=config.analysis_sigma,
                ))
        cells = config.base_cells * envelope * refinement_multiplier
        state_bytes = cells * config.state_bytes_per_cell
        rank_weights = rng.lognormal(mean=0.0, sigma=config.imbalance_sigma,
                                     size=config.nranks)
        rank_bytes = rank_weights * (state_bytes / rank_weights.sum())
        intensity = epoch_intensity * (
            (cells / config.base_cells) ** config.analysis_growth_exponent
        )
        records.append(
            StepRecord(
                step=step,
                sim_work=cells * config.sim_cost_per_cell,
                cells=int(round(cells)),
                data_bytes=cells * config.output_bytes_per_cell,
                memory_bytes=state_bytes,
                rank_bytes=rank_bytes,
                analysis_intensity=intensity,
            )
        )
    return WorkloadTrace(
        name=name,
        ndim=3,
        nranks=config.nranks,
        bytes_per_cell=config.output_bytes_per_cell,
        steps=records,
    )
