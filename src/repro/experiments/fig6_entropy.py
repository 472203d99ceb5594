"""Figure 6: entropy-based data down-sampling.

The paper renders two isosurfaces of the Polytropic Gas density field and
shows that regions whose block entropy falls below a threshold can be
down-sampled (every 4th grid point) without visibly losing structure,
while high-entropy regions keep full resolution (their Fig. 6 quotes
block entropies of 5.14 vs 9.21 bits against the finest level's 5.14-9.85
range).

Without a renderer we verify the same claim quantitatively on the real
solver's density field:

- per-block Shannon entropies span a wide range;
- the entropy->factor mapping reduces low-entropy blocks aggressively;
- reconstruction error and isosurface fidelity degrade far less on
  low-entropy blocks than the same reduction would cost on high-entropy
  blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amr.box import Box
from repro.amr.godunov import PolytropicGasSolver
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.stepper import AMRStepper
from repro.analysis.downsample import blockwise_stride_reconstruction
from repro.analysis.entropy import block_entropies, entropy_downsample_factors
from repro.analysis.fidelity import blockwise_reconstruction_errors
from repro.analysis.isosurface import extract_isosurface, surface_area
from repro.experiments.cache import default_cache
from repro.experiments.common import render_table, single_point_sweep

__all__ = ["Fig6Result", "density_field", "render", "run_fig6"]

BLOCK = 8
FACTOR = 4  # the paper's "down-sampled at every 4th grid point"


def _gas_stepper(n: int) -> AMRStepper:
    domain = Box((0, 0, 0), (n - 1, n - 1, n - 1))
    hierarchy = AMRHierarchy(
        domain, ncomp=5, nghost=2, max_levels=2, max_box_size=16,
        dx0=1.0 / n, periodic=True,
    )
    solver = PolytropicGasSolver(tag_threshold=0.06, blast_pressure_jump=30.0,
                                 blast_density_jump=5.0)
    return AMRStepper(hierarchy, solver, regrid_interval=4)


def _density(stepper: AMRStepper) -> np.ndarray:
    hierarchy = stepper.hierarchy
    dense = hierarchy.levels[0].data.to_dense(hierarchy.level_domain(0))
    return dense[0]  # density


def density_field(n: int = 48, nsteps: int = 25, cache=None) -> np.ndarray:
    """Run the 3-D gas solver and return the dense density field.

    Repeated requests share one memoized solver session
    (:mod:`repro.experiments.cache`); a longer request advances the same
    stepper forward, bit-identical to a fresh run of that length.
    """
    cache = default_cache() if cache is None else cache
    return cache.field(
        "density_field",
        {"n": n},
        nsteps,
        build=lambda: _gas_stepper(n),
        extract=_density,
    )


@dataclass(frozen=True)
class Fig6Result:
    """Entropy statistics and fidelity of the entropy-guided reduction."""

    entropies: np.ndarray
    threshold: float
    factors: np.ndarray
    low_entropy_error: float  # reconstruction error on reduced blocks
    high_entropy_error_if_reduced: float  # what reducing the kept blocks would cost
    reduced_fraction: float  # fraction of blocks down-sampled
    bytes_saved_fraction: float
    area_ratio: float  # isosurface area retained after adaptive reduction
    triangle_ratio: float


def run_fig6(n: int = 48, nsteps: int = 25) -> Fig6Result:
    """Entropy-guided reduction of the real density field."""
    field = density_field(n, nsteps)
    entropies = block_entropies(field, (BLOCK, BLOCK, BLOCK), bins=256)
    # A threshold inside the observed range, as the paper's user picks one
    # between the finest level's 5.14 and 9.85 bits.  The range midpoint
    # separates near-constant ambient blocks from feature-bearing ones.
    threshold = float(0.5 * (entropies.min() + entropies.max()))
    factors = entropy_downsample_factors(
        entropies, thresholds=[threshold], factors=[FACTOR, 1]
    )

    # Per-block reconstruction errors in one vectorized pass; boolean
    # indexing walks the block grid in the same C order as a block loop.
    errors = blockwise_reconstruction_errors(field, (BLOCK, BLOCK, BLOCK), FACTOR)
    reduced_mask = factors > 1
    low_errors = errors[reduced_mask]
    high_errors = errors[~reduced_mask]
    blocks = int(factors.size)
    # k blocks each save (1 - 1/FACTOR^3); the product is exact in binary
    # arithmetic, so this equals the per-block accumulation it replaces.
    saved = float(np.count_nonzero(reduced_mask)) * (1 - 1 / FACTOR**3)

    # Isosurface fidelity of the adaptively reduced field: resolution is
    # dropped only inside low-entropy blocks via stride-upsampled
    # reconstruction, applied to all reduced blocks in a single gather.
    recon = blockwise_stride_reconstruction(
        field, (BLOCK, BLOCK, BLOCK), FACTOR, block_mask=reduced_mask
    )

    iso = float(np.percentile(field, 90))
    verts_f, tris_f = extract_isosurface(field, iso)
    verts_r, tris_r = extract_isosurface(recon, iso)
    full_area = surface_area(verts_f, tris_f)
    red_area = surface_area(verts_r, tris_r)

    return Fig6Result(
        entropies=entropies,
        threshold=threshold,
        factors=factors,
        low_entropy_error=float(np.mean(low_errors)) if low_errors.size else 0.0,
        high_entropy_error_if_reduced=(
            float(np.mean(high_errors)) if high_errors.size else 0.0
        ),
        reduced_fraction=float((factors > 1).mean()),
        bytes_saved_fraction=saved / blocks,
        area_ratio=red_area / full_area if full_area else 1.0,
        triangle_ratio=len(tris_r) / len(tris_f) if len(tris_f) else 1.0,
    )


grid, run_point, merge = single_point_sweep(run_fig6)


def render(result: Fig6Result) -> str:
    ent = result.entropies
    rows = [
        ["block entropy range (bits)",
         f"{ent.min():.2f} - {ent.max():.2f}", "5.14 - 9.85 (finest level)"],
        ["threshold (range midpoint)", f"{result.threshold:.2f}", "user-specified"],
        ["blocks down-sampled x4", f"{result.reduced_fraction * 100:.0f}%", "-"],
        ["bytes saved", f"{result.bytes_saved_fraction * 100:.0f}%", "-"],
        ["recon. error, low-entropy blocks",
         f"{result.low_entropy_error:.4f}", "low (claim: little info lost)"],
        ["recon. error if high-entropy blocks were reduced",
         f"{result.high_entropy_error_if_reduced:.4f}",
         "higher (claim: keep full res)"],
        ["isosurface area retained", f"{result.area_ratio * 100:.1f}%",
         "structure preserved"],
        ["isosurface triangles retained", f"{result.triangle_ratio * 100:.1f}%", "-"],
    ]
    table = render_table(["metric", "measured", "paper / claim"], rows,
                         title="Fig. 6: entropy-based down-sampling, quantitative")
    verdict = (
        "PASS" if result.low_entropy_error < result.high_entropy_error_if_reduced
        and result.area_ratio > 0.8 else "FAIL"
    )
    return table + f"\n\nclaim check (low-entropy regions reduce cheaply): {verdict}"
