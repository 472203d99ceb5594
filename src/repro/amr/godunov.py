"""Polytropic gas (Euler) solver with an unsplit Godunov scheme.

The paper's second, memory- and compute-intensive Chombo application:
``AMRGodunov PolytropicGas`` integrates the Euler equations of gas
dynamics with a gamma-law equation of state.  This module implements an
unsplit finite-volume update with MUSCL (minmod-limited) reconstruction
and HLL fluxes -- per-box, fully vectorized over cells, in 1/2/3-D.

Conserved state layout (component axis first):

====== ======================
index  quantity
====== ======================
0      density ``rho``
1..d   momentum ``rho * v_k``
d+1    total energy ``E``
====== ======================

Initial condition: a dense, hot spherical region (a blast/explosion
problem).  As the blast expands, the shock surface grows, and with it the
refined region -- reproducing the erratic memory growth of the paper's
Figure 1.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRHierarchy
from repro.amr.level import LevelData
from repro.amr.tagging import tag_undivided_difference
from repro.errors import GeometryError

__all__ = ["PolytropicGasSolver"]

_RHO_FLOOR = 1e-10
_P_FLOOR = 1e-12


# Spatial cells per batched solver call.  Advancing a whole level in one
# call makes every temporary tens of MB and pushes the update out of
# cache; chunks of ~1e5 cells keep the working set resident (measured ~6x
# on a 340-box level) while still amortizing NumPy dispatch overhead.
_BATCH_CELLS = 1 << 17


def _batches(indices: list[int], cells_per_box: int) -> list[list[int]]:
    """Split one same-shape group into cache-sized chunks."""
    per = max(1, _BATCH_CELLS // max(1, cells_per_box))
    return [indices[k : k + per] for k in range(0, len(indices), per)]


def _chunks(indices: list[int], group: np.ndarray):
    """``(chunk, view)`` per :func:`_batches` chunk of a ``(ncomp, k, ...)`` group."""
    start = 0
    for chunk in _batches(indices, group[0, 0].size):
        yield chunk, group[:, start : start + len(chunk)]
        start += len(chunk)


class PolytropicGasSolver:
    """Euler equations with gamma-law EOS; unsplit MUSCL-HLL Godunov update.

    Parameters
    ----------
    gamma:
        Ratio of specific heats (1.4 for air, Chombo's default).
    cfl:
        Courant number (shared across the unsplit update).
    order:
        1 = piecewise-constant Godunov, 2 = MUSCL minmod reconstruction.
    tag_threshold:
        Relative undivided density difference that triggers refinement.
    blast_pressure_jump, blast_density_jump, blast_radius:
        Initial condition parameters (relative to ambient ``rho=1, p=1``).
    """

    nghost = 2

    def __init__(
        self,
        gamma: float = 1.4,
        cfl: float = 0.4,
        order: int = 2,
        tag_threshold: float = 0.08,
        blast_pressure_jump: float = 10.0,
        blast_density_jump: float = 3.0,
        blast_radius: float = 0.15,
    ):
        if gamma <= 1.0:
            raise GeometryError(f"gamma must exceed 1, got {gamma}")
        if not (0 < cfl <= 1):
            raise GeometryError(f"cfl must be in (0, 1], got {cfl}")
        if order not in (1, 2):
            raise GeometryError(f"order must be 1 or 2, got {order}")
        self.gamma = float(gamma)
        self.cfl = float(cfl)
        self.order = int(order)
        self.tag_threshold = float(tag_threshold)
        self.blast_pressure_jump = float(blast_pressure_jump)
        self.blast_density_jump = float(blast_density_jump)
        self.blast_radius = float(blast_radius)
        self._ndim: int | None = None

    # -- state helpers ---------------------------------------------------------

    @property
    def ncomp(self) -> int:
        """Components for the bound dimension (set at :meth:`initialize`)."""
        if self._ndim is None:
            raise GeometryError("solver not initialized; ncomp depends on dimension")
        return self._ndim + 2

    def ncomp_for(self, ndim: int) -> int:
        """Conserved components for an ``ndim``-dimensional problem."""
        return ndim + 2

    def primitives(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rho, velocities, pressure)`` from conserved state ``U``."""
        ndim = U.shape[0] - 2
        rho = np.maximum(U[0], _RHO_FLOOR)
        vel = U[1 : 1 + ndim] / rho
        kinetic = 0.5 * rho * np.sum(vel * vel, axis=0)
        p = (self.gamma - 1.0) * (U[-1] - kinetic)
        return rho, vel, np.maximum(p, _P_FLOOR)

    def sound_speed(self, U: np.ndarray) -> np.ndarray:
        """Adiabatic sound speed per cell."""
        rho, _vel, p = self.primitives(U)
        return np.sqrt(self.gamma * p / rho)

    # -- protocol ------------------------------------------------------------

    def initialize(self, hierarchy: AMRHierarchy) -> None:
        """Set the spherical blast initial condition on every level."""
        ndim = hierarchy.domain.ndim
        self._ndim = ndim
        if hierarchy.ncomp != self.ncomp_for(ndim):
            raise GeometryError(
                f"hierarchy has ncomp={hierarchy.ncomp}, solver needs "
                f"{self.ncomp_for(ndim)} for {ndim}-D"
            )
        extent = [s * hierarchy.dx0 for s in hierarchy.domain.shape]
        center = tuple(0.5 * e for e in extent)
        radius = self.blast_radius * min(extent)

        def blast(*coords: np.ndarray) -> np.ndarray:
            r = np.sqrt(sum((c - c0) ** 2 for c, c0 in zip(coords, center)))
            inside = r < radius
            rho = np.where(inside, self.blast_density_jump, 1.0)
            p = np.where(inside, self.blast_pressure_jump, 1.0)
            out = np.zeros((ndim + 2, *r.shape))
            out[0] = rho
            out[-1] = p / (self.gamma - 1.0)  # zero initial velocity
            return out

        for level, spec in enumerate(hierarchy.levels):
            spec.data.set_from_function(blast, dx=hierarchy.dx(level))

    def stable_dt_level(self, spec, dx: float, ndim: int) -> float:
        """Unsplit CFL limit for one level: ``cfl * dx / sum_d max(|v_d|+c)``."""
        del ndim
        dt = np.inf
        for wave in self._level_waves(spec):
            if wave > 0:
                dt = min(dt, self.cfl * dx / wave)
        return float(dt)

    def _level_waves(self, spec) -> list[float]:
        """Per-box ``sum_d max(|v_d|+c)``, one reduction per shape-group chunk.

        The box axis of a group view rides along like an extra spatial
        axis; ``max`` is exact, so the result is bit-identical to the
        per-box loop.
        """
        waves = [0.0] * len(spec.layout)
        for indices, valid in spec.data.valid_groups():
            for chunk, U in _chunks(indices, valid):
                rho, vel, p = self.primitives(U)
                c = np.sqrt(self.gamma * p / rho)
                axes = tuple(range(1, c.ndim))
                for d in range(vel.shape[0]):
                    per_box = np.max(np.abs(vel[d]) + c, axis=axes)
                    for i, wave in zip(chunk, per_box.tolist()):
                        waves[i] += wave
        return waves

    def stable_dt(self, hierarchy: AMRHierarchy) -> float:
        """Global (non-subcycled) CFL limit over all levels."""
        ndim = hierarchy.domain.ndim
        dt = min(
            self.stable_dt_level(spec, hierarchy.dx(level), ndim)
            for level, spec in enumerate(hierarchy.levels)
        )
        if not np.isfinite(dt):
            raise GeometryError("no finite CFL limit; state may be uninitialized")
        return float(dt)

    def compute_fluxes(self, arr: np.ndarray, dx: float) -> list[np.ndarray]:
        """HLL face fluxes per axis over the ``n_d + 1`` interior faces.

        ``dx`` is unused (the Riemann flux is resolution-independent) but
        kept for the shared flux-provider signature.
        """
        del dx
        return self._compute_fluxes_nd(arr, arr.ndim - 1)

    def _compute_fluxes_nd(self, arr: np.ndarray, ndim: int) -> list[np.ndarray]:
        """Fluxes with an explicit spatial dimension (batched arrays carry
        an extra box axis between the component and spatial axes)."""
        g = self.nghost
        fluxes: list[np.ndarray] = []
        for axis in range(ndim):
            UL, UR = self._face_states(arr, axis, g, ndim)
            fluxes.append(self._hll_flux(UL, UR, axis))
        return fluxes

    def advance(self, arr: np.ndarray, dx: float, dt: float) -> None:
        """One unsplit conservative update of a ghosted box array (in place)."""
        self._advance_nd(arr, arr.ndim - 1, dx, dt)

    def advance_boxes(self, level: LevelData, dx: float, dt: float) -> None:
        """Advance a whole :class:`~repro.amr.level.LevelData` in place,
        one call per cache-sized chunk of each shape group.

        Every numerical op is elementwise (or reduces over the fixed
        component axis), so advancing a ``(ncomp, k, *padded)`` group view
        is bit-identical to advancing its boxes one by one, while NumPy's
        call overhead is paid per chunk instead of per box.
        """
        for indices, view in level.groups:
            for _, U in _chunks(indices, view):
                self._advance_nd(U, U.ndim - 2, dx, dt)

    def _advance_nd(self, arr: np.ndarray, ndim: int, dx: float, dt: float) -> None:
        self.advance_with_fluxes(arr, dx, dt, self._compute_fluxes_nd(arr, ndim),
                                 ndim=ndim)

    def advance_with_fluxes(
        self,
        arr: np.ndarray,
        dx: float,
        dt: float,
        fluxes: list[np.ndarray],
        ndim: int | None = None,
    ) -> None:
        """Apply the divergence of precomputed fluxes, then physical floors."""
        g = self.nghost
        if ndim is None:
            ndim = arr.ndim - 1
        lead = arr.ndim - ndim
        U = arr
        interior_idx = (slice(None),) * lead + self._interior(ndim, g)
        flux_div = np.zeros_like(U[interior_idx])
        for axis, F in enumerate(fluxes):
            # F has one more entry along `axis` than the interior; difference it.
            hi = [slice(None)] * F.ndim
            lo = [slice(None)] * F.ndim
            hi[lead + axis] = slice(1, None)
            lo[lead + axis] = slice(None, -1)
            flux_div += (F[tuple(hi)] - F[tuple(lo)]) / dx
        U[interior_idx] -= dt * flux_div
        # Floors guard against negative density/pressure from strong shocks.
        interior = U[interior_idx]
        interior[0] = np.maximum(interior[0], _RHO_FLOOR)
        rho, vel, p = self.primitives(interior)
        kinetic = 0.5 * rho * np.sum(vel * vel, axis=0)
        interior[-1] = np.maximum(interior[-1], kinetic + _P_FLOOR / (self.gamma - 1.0))

    def tag_cells(self, dense: np.ndarray, level: int, dx: float) -> np.ndarray:
        """Refine on relative undivided density differences (shock tracking)."""
        rho = dense[0]
        scale = np.nanmean(np.abs(rho))
        if not np.isfinite(scale) or scale == 0:
            scale = 1.0
        return tag_undivided_difference(rho / scale, self.tag_threshold)

    def work_per_cell(self) -> float:
        """Relative cost of one cell update; Euler is ~8x the scalar tracer."""
        return 8.0

    # -- numerics ------------------------------------------------------------

    @staticmethod
    def _interior(ndim: int, g: int) -> tuple[slice, ...]:
        return tuple(slice(g, -g) for _ in range(ndim))

    def _face_states(
        self, U: np.ndarray, axis: int, g: int, ndim: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Left/right states at the ``n_interior + 1`` faces along ``axis``.

        Other axes are restricted to the interior.  With ``order == 2`` a
        minmod-limited linear reconstruction is used.  ``ndim`` counts the
        trailing spatial axes (leading component/batch axes pass through).
        """
        if ndim is None:
            ndim = U.ndim - 1
        lead = U.ndim - ndim

        def band(offset_lo: int, offset_hi: int) -> np.ndarray:
            """Slice: interior on other axes, [g+offset_lo, -g+offset_hi) on axis."""
            slc: list[slice] = [slice(None)] * lead
            for d in range(ndim):
                if d == axis:
                    stop = -g + offset_hi
                    slc.append(slice(g + offset_lo, stop if stop != 0 else None))
                else:
                    slc.append(slice(g, -g))
            return U[tuple(slc)]

        # Cells i = -1 .. n (one beyond the interior each way along `axis`).
        center = band(-1, 1)
        if self.order == 1:
            UL = center[self._axis_slice(lead, ndim, axis, slice(None, -1))]
            UR = center[self._axis_slice(lead, ndim, axis, slice(1, None))]
            return UL, UR
        left = band(-2, 0)
        right = band(0, 2)
        dl = center - left
        dr = right - center
        slope = self._minmod(dl, dr)
        recon_l = center + 0.5 * slope  # right face of each cell
        recon_r = center - 0.5 * slope  # left face of each cell
        UL = recon_l[self._axis_slice(lead, ndim, axis, slice(None, -1))]
        UR = recon_r[self._axis_slice(lead, ndim, axis, slice(1, None))]
        return UL, UR

    @staticmethod
    def _axis_slice(lead: int, ndim: int, axis: int, sl: slice) -> tuple[slice, ...]:
        out: list[slice] = [slice(None)] * lead
        for d in range(ndim):
            out.append(sl if d == axis else slice(None))
        return tuple(out)

    @staticmethod
    def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        same = (a * b) > 0
        return np.where(same, np.where(np.abs(a) < np.abs(b), a, b), 0.0)

    def _physical_flux(
        self,
        U: np.ndarray,
        axis: int,
        prims: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        rho, vel, p = self.primitives(U) if prims is None else prims
        vd = vel[axis]
        F = np.empty_like(U)
        F[0] = rho * vd
        for k in range(vel.shape[0]):
            F[1 + k] = rho * vel[k] * vd
        F[1 + axis] += p
        F[-1] = (U[-1] + p) * vd
        return F

    def _hll_flux(self, UL: np.ndarray, UR: np.ndarray, axis: int) -> np.ndarray:
        rhoL, velL, pL = self.primitives(UL)
        rhoR, velR, pR = self.primitives(UR)
        cL = np.sqrt(self.gamma * pL / rhoL)
        cR = np.sqrt(self.gamma * pR / rhoR)
        sL = np.minimum(velL[axis] - cL, velR[axis] - cR)
        sR = np.maximum(velL[axis] + cL, velR[axis] + cR)
        # Reuse the primitives already computed for the wave speeds.
        FL = self._physical_flux(UL, axis, (rhoL, velL, pL))
        FR = self._physical_flux(UR, axis, (rhoR, velR, pR))
        denom = sR - sL
        denom = np.where(np.abs(denom) < 1e-14, 1e-14, denom)
        F_star = (sR * FL - sL * FR + (sL * sR) * (UR - UL)) / denom
        F = np.where(sL >= 0, FL, np.where(sR <= 0, FR, F_star))
        return F
