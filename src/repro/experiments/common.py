"""Shared experiment infrastructure: scale configs, runners, sweeps, rendering.

The paper's placement/global experiments run the Advection-Diffusion
workflow on Titan at four scales with a 16:1 simulation-to-staging core
ratio (Section 5.2.2); Table 2 gives the step counts per scale.  The
grids (1024x1024x512 ... 2048x2048x1024) fix the base cell counts; the
simulation cost constant is calibrated so cumulative times land in the
paper's 1000-4500 s band.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from repro.core.preferences import UserHints, UserPreferences
from repro.hpc.systems import SystemSpec, titan
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import run_workflow
from repro.workflow.metrics import WorkflowResult
from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace
from repro.workload.trace import WorkloadTrace

__all__ = [
    "PAPER",
    "SCALES",
    "ScaleConfig",
    "advection_trace",
    "default_hints",
    "per_scale_sweep",
    "render_table",
    "run_mode_at_scale",
    "single_point_sweep",
]


@dataclass(frozen=True)
class ScaleConfig:
    """One column of Figs. 7/8/10/11 and one row of Table 2."""

    sim_cores: int
    staging_cores: int
    grid: tuple[int, int, int]
    steps: int
    seed: int

    @property
    def base_cells(self) -> float:
        nx, ny, nz = self.grid
        return float(nx) * ny * nz

    @property
    def label(self) -> str:
        return f"{self.sim_cores // 1024}K"


# Grids, core counts and step totals from Sections 5.2.2 and Table 2.
SCALES: tuple[ScaleConfig, ...] = (
    ScaleConfig(2048, 128, (1024, 1024, 512), 27, seed=11),
    ScaleConfig(4096, 256, (1024, 1024, 1024), 42, seed=12),
    ScaleConfig(8192, 512, (2048, 1024, 1024), 49, seed=13),
    ScaleConfig(16384, 1024, (2048, 2048, 1024), 41, seed=14),
)

# Calibration: multi-stage solver work per cell per step (advection
# solver with subcycled fine levels), chosen so per-step times are tens
# of seconds on the paper's core counts.  The analysis constant puts the
# mean in-transit/simulation time ratio at 16 * 0.7 / 12 ~ 0.93 on the
# 16:1 partition: staging keeps up on quiet regrid epochs and falls
# behind on complex-isosurface epochs -- the regime of Figs. 4 and 7.
SIM_COST_PER_CELL = 12.0
ANALYSIS_COST_PER_CELL = 0.7


class _Paper:
    """Values reported in the paper, for EXPERIMENTS.md comparisons."""

    # Fig. 7: adaptive end-to-end overhead reduction (%) per scale.
    fig7_overhead_cut_vs_insitu = (50.00, 50.31, 50.50, 56.30)
    fig7_overhead_cut_vs_intransit = (75.42, 38.78, 21.29, 48.22)
    fig7_overhead_fraction_bound = 0.06  # "less than 6% of simulation time"
    # Fig. 8: adaptive data-movement reduction (%) vs static in-transit.
    fig8_movement_cut = (50.00, 48.00, 47.90, 39.04)
    # Fig. 9 / Eq. 12 utilization efficiencies (%).
    fig9_utilization_adaptive = 87.11
    fig9_utilization_static = 54.57
    # Fig. 10: global overhead reduction (%) vs local middleware adaptation.
    fig10_overhead_cut_vs_local = (52.16, 84.22, 97.84, 88.87)
    # Fig. 11: global data-movement reduction (%) vs local.
    fig11_movement_cut_vs_local = (45.93, 17.25, 5.76, 32.41)
    # Table 2 (cases, total steps, steps at 100/75/50/<50 % core usage).
    table2 = {
        "2K:128": (27, 25, 2, 0, 0),
        "4K:256": (42, 8, 13, 4, 17),
        "8K:512": (49, 4, 23, 22, 0),
        "16K:1024": (41, 10, 12, 10, 9),
    }
    # Fig. 5: adaptation kicks in at step 31 of 40; factor phases.
    fig5_steps = 40
    fig5_phases = ((1, (2, 4)), (21, (2, 4, 8, 16)))
    # Fig. 6: entropy range at the finest level of step 60.
    fig6_entropy_range = (5.14, 9.85)


PAPER = _Paper()


def advection_trace(scale: ScaleConfig, cache=None) -> WorkloadTrace:
    """The synthetic Advection-Diffusion workload for one scale.

    Rank count equals the simulation core count; per-rank state is sized
    so the workload fits the machine (Titan: 2 GiB/core) with AMR
    imbalance on top.  Memoized through the shared experiment cache
    (:mod:`repro.experiments.cache`), keyed by the scale's fields.
    """
    from dataclasses import asdict

    from repro.experiments.cache import default_cache

    def _compute() -> WorkloadTrace:
        config = SyntheticAMRConfig(
            steps=scale.steps,
            nranks=scale.sim_cores,
            base_cells=scale.base_cells,
            sim_cost_per_cell=SIM_COST_PER_CELL,
            state_bytes_per_cell=16.0,  # scalar tracer + scratch
            output_bytes_per_cell=8.0,
            growth=1.8,
            analysis_growth_exponent=0.1,
            seed=scale.seed,
        )
        return synthetic_amr_trace(config, name=f"advection-{scale.label}")

    cache = default_cache() if cache is None else cache
    return cache.value("advection_trace", asdict(scale), _compute)


def default_hints() -> UserHints:
    """The paper's user hints: Fig. 5's phase-dependent factor sets."""
    return UserHints(downsample_phases=PAPER.fig5_phases)


@lru_cache(maxsize=128)
def run_mode_at_scale(
    scale: ScaleConfig,
    mode: Mode,
    with_hints: bool = False,
    spec: SystemSpec | None = None,
) -> WorkflowResult:
    """Run (and memoize) one mode at one scale."""
    config = WorkflowConfig(
        mode=mode,
        sim_cores=scale.sim_cores,
        staging_cores=scale.staging_cores,
        spec=spec or titan(),
        analysis_cost_per_cell=ANALYSIS_COST_PER_CELL,
        preferences=UserPreferences(),
        hints=default_hints() if with_hints else UserHints(),
    )
    return run_workflow(config, advection_trace(scale))


def per_scale_sweep(row: Callable[[ScaleConfig], Any]):
    """The sweep protocol of a figure with one point per scale.

    ``row(scale)`` computes one column of the figure; the grid indexes
    :data:`SCALES`, and the merged figure is the grid-ordered rows.
    Returns the ``(grid, run_point, merge)`` triplet the module binds.
    """

    def grid() -> list[dict]:
        return [{"scale": index} for index in range(len(SCALES))]

    def run_point(params: dict) -> Any:
        return row(SCALES[params["scale"]])

    def merge(results: list) -> list:
        return list(results)

    return grid, run_point, merge


def single_point_sweep(run: Callable[..., Any]):
    """The sweep protocol of a figure that is one deterministic point.

    The grid is one empty parameter dict, the point is ``run()``, and
    that point's result is the merged figure.  Returns the ``(grid,
    run_point, merge)`` triplet the module binds.
    """

    def grid() -> list[dict]:
        return [{}]

    def run_point(params: dict) -> Any:
        return run(**params)

    def merge(results: list) -> Any:
        (result,) = results
        return result

    return grid, run_point, merge


def render_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Plain-text table rendering shared by all experiment reports."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    sep = "-" * len(line)
    out = []
    if title:
        out.extend([title, "=" * len(title)])
    out.extend([line, sep])
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)
