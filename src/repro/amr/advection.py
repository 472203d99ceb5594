"""Adaptive advection-diffusion solver (the paper's first Chombo application).

Solves ``u_t + a . grad(u) = nu * lap(u)`` with first-order upwinding for
the advective term and explicit central differences for diffusion, on every
level of an :class:`~repro.amr.hierarchy.AMRHierarchy`.  The scheme is the
conservative transport solver of the Chombo ``AMRGodunov`` example family,
simplified to a scalar tracer.

The solver implements the :class:`~repro.amr.stepper.AMRApplication`
protocol; it is driven by :class:`~repro.amr.stepper.AMRStepper`.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRHierarchy
from repro.amr.tagging import tag_undivided_difference
from repro.errors import GeometryError

__all__ = ["AdvectionDiffusionSolver"]


class AdvectionDiffusionSolver:
    """Scalar advection-diffusion with upwind fluxes.

    Parameters
    ----------
    velocity:
        Constant advection velocity, one component per dimension.
    nu:
        Diffusion coefficient (>= 0).
    cfl:
        Courant number for the advective limit.
    tag_threshold:
        Undivided-difference threshold for refinement tagging.
    blob_center, blob_radius:
        Initial condition: a compact Gaussian blob (plus a background of
        zero), the standard smoke test for adaptive transport.
    """

    ncomp = 1
    nghost = 2

    def __init__(
        self,
        velocity: tuple[float, ...],
        nu: float = 0.0,
        cfl: float = 0.5,
        tag_threshold: float = 0.02,
        blob_center: tuple[float, ...] | None = None,
        blob_radius: float = 0.1,
    ):
        if nu < 0:
            raise GeometryError(f"nu must be >= 0, got {nu}")
        if not (0 < cfl <= 1):
            raise GeometryError(f"cfl must be in (0, 1], got {cfl}")
        self.velocity = tuple(float(v) for v in velocity)
        self.nu = float(nu)
        self.cfl = float(cfl)
        self.tag_threshold = float(tag_threshold)
        self.blob_center = blob_center
        self.blob_radius = float(blob_radius)

    # -- protocol ------------------------------------------------------------

    def initialize(self, hierarchy: AMRHierarchy) -> None:
        """Set the Gaussian blob on every level."""
        ndim = hierarchy.domain.ndim
        if len(self.velocity) != ndim:
            raise GeometryError(
                f"velocity has {len(self.velocity)} components for a {ndim}-D domain"
            )
        extent = [s * hierarchy.dx0 for s in hierarchy.domain.shape]
        center = self.blob_center or tuple(0.35 * e for e in extent)
        radius = self.blob_radius * min(extent)

        def blob(*coords: np.ndarray) -> np.ndarray:
            r2 = sum((c - c0) ** 2 for c, c0 in zip(coords, center))
            return np.exp(-r2 / (2 * radius**2))

        for level, spec in enumerate(hierarchy.levels):
            spec.data.set_from_function(blob, dx=hierarchy.dx(level))

    def stable_dt_level(self, spec, dx: float, ndim: int) -> float:
        """CFL limit for one level at spacing ``dx`` (data-independent here)."""
        del spec
        speed = sum(abs(v) for v in self.velocity)
        dt = np.inf
        if speed > 0:
            dt = min(dt, self.cfl * dx / speed)
        if self.nu > 0:
            dt = min(dt, 0.4 * dx * dx / (2 * ndim * self.nu))
        if not np.isfinite(dt):
            raise GeometryError("zero velocity and zero diffusion: dt unbounded")
        return float(dt)

    def stable_dt(self, hierarchy: AMRHierarchy) -> float:
        """Global (non-subcycled) CFL limit: the finest level binds."""
        ndim = hierarchy.domain.ndim
        return min(
            self.stable_dt_level(spec, hierarchy.dx(level), ndim)
            for level, spec in enumerate(hierarchy.levels)
        )

    def advance(self, arr: np.ndarray, dx: float, dt: float) -> None:
        """One conservative explicit update of the ghosted array (in place).

        ``arr`` has shape ``(1, *padded)`` with ``nghost`` ghost cells per
        side; only interior cells are updated.  The face fluxes per axis
        (upwind advective plus central diffusive, over the ``n_d + 1``
        interior faces) are all computed from the old state before any
        is differenced, so the update is conservative.
        """
        g = self.nghost
        u = arr[0]
        ndim = u.ndim
        fluxes: list[np.ndarray] = []
        for axis in range(ndim):
            # Cells i = -1 .. n along `axis`, interior on other axes.
            band = self._band(u, axis, g)
            left = band[self._axis_slice(ndim, axis, slice(None, -1))]
            right = band[self._axis_slice(ndim, axis, slice(1, None))]
            v = self.velocity[axis]
            advective = v * (left if v > 0 else right)
            diffusive = -self.nu * (right - left) / dx if self.nu > 0 else 0.0
            fluxes.append((advective + diffusive)[None, ...])
        interior = (slice(None), *self._interior(ndim, g))
        for axis, F in enumerate(fluxes):
            hi = [slice(None)] * F.ndim
            lo = [slice(None)] * F.ndim
            hi[1 + axis] = slice(1, None)
            lo[1 + axis] = slice(None, -1)
            arr[interior] -= dt / dx * (F[tuple(hi)] - F[tuple(lo)])

    @staticmethod
    def _band(u: np.ndarray, axis: int, g: int) -> np.ndarray:
        """Cells -1..n along ``axis``, interior on the other axes."""
        slc: list[slice] = []
        for d in range(u.ndim):
            if d == axis:
                stop = -g + 1
                slc.append(slice(g - 1, stop if stop != 0 else None))
            else:
                slc.append(slice(g, -g))
        return u[tuple(slc)]

    @staticmethod
    def _axis_slice(ndim: int, axis: int, sl: slice) -> tuple[slice, ...]:
        return tuple(sl if d == axis else slice(None) for d in range(ndim))

    def tag_cells(self, dense: np.ndarray, level: int, dx: float) -> np.ndarray:
        """Refine where the tracer's undivided difference is large."""
        return tag_undivided_difference(dense[0], self.tag_threshold)

    def work_per_cell(self) -> float:
        """Relative cost of one cell update (calibration for the cost model)."""
        return 1.0

    # -- slicing helpers -----------------------------------------------------

    @staticmethod
    def _interior(ndim: int, g: int) -> tuple[slice, ...]:
        return tuple(slice(g, -g) for _ in range(ndim))
