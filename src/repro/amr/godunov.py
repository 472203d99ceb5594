"""Polytropic gas (Euler) solver with an unsplit Godunov scheme.

The paper's second, memory- and compute-intensive Chombo application:
``AMRGodunov PolytropicGas`` integrates the Euler equations of gas
dynamics with a gamma-law equation of state.  This module implements an
unsplit finite-volume update with MUSCL (minmod-limited) reconstruction
and HLL fluxes in 1/2/3-D.  The stepper advances a whole level at once,
one sweep per axis over the pencils of all its boxes
(:meth:`PolytropicGasSolver.advance_boxes`); the per-box update
(:meth:`PolytropicGasSolver.advance`) is the reference that sweep is
tested against.

``order=2`` is second order in space only.  Each step applies one
forward-Euler update of the MUSCL-HLL face fluxes, with no Hancock
predictor, so on smooth flow the scheme converges at first order in
time; ``tests/amr/test_convergence.py::TestGasOrder`` measures this.
Chombo's PolytropicGas is second order in time.

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

import math
from typing import NamedTuple

import numpy as np

from repro.amr.coarsefine import _zero_unless
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.level import LevelData
from repro.amr.tagging import tag_undivided_difference
from repro.errors import GeometryError

__all__ = ["PolytropicGasSolver"]

_RHO_FLOOR = 1e-10
_P_FLOOR = 1e-12


# Pencil cells per sweep chunk.  Sweeping a whole level in one pass
# makes every temporary several MB and raised peak RSS by ~17% on the
# Figs. 1/5 run; at 16Ki the allocator still kept ~5% more.  Chunks of
# whole boxes capped at 8Ki pencil cells stay within ~1% and keep the
# working set in cache, while NumPy's dispatch is paid per chunk, not
# per box.
_BATCH_CELLS = 1 << 13


class _Chunk(NamedTuple):
    """A run of whole boxes that :meth:`PolytropicGasSolver.advance_boxes`
    sweeps together, as buffer-column plans."""

    #: Layout index of each box.
    boxes: np.ndarray
    #: Position of each box's first cell in ``valid``.
    starts: np.ndarray
    #: Buffer column of every valid cell, box by box in C order.
    valid: np.ndarray
    #: Per axis ``(pencils, faces, cells)``.  ``pencils``: buffer columns
    #: of every padded line along the axis through the boxes' interior
    #: cross-sections, concatenated.  ``faces``: per face a box needs, the
    #: position of its left cell in ``pencils``, minus one.  ``cells``:
    #: per valid cell, the position of its low face in ``faces``.
    axes: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _box_stencil(padded: tuple[int, ...], g: int):
    """Box-local ``(valid, axes)`` of :class:`_Chunk` for one padded shape."""
    flat = np.arange(math.prod(padded)).reshape(padded)
    inner = tuple(slice(g, s - g) for s in padded)
    shape = flat[inner].shape
    axes = []
    for d, n in enumerate(shape):
        lines = list(inner)
        lines[d] = slice(None)
        pencils = np.moveaxis(flat[tuple(lines)], d, -1)  # (*cross, n + 2g)
        count = pencils.size // padded[d]
        # Face f (0..n) has interior cell f - 1 on its left.
        faces = np.arange(count)[:, None] * padded[d] + np.arange(g - 2, g - 1 + n)
        low = (np.arange(count)[:, None] * (n + 1) + np.arange(n)).reshape(*pencils.shape[:-1], n)
        axes.append((pencils.ravel(), faces.ravel(), np.moveaxis(low, -1, d).ravel()))
    return flat[inner].ravel(), axes


def _sweep_plan(level: LevelData) -> list[_Chunk]:
    """The level's sweep chunks, cached on its layout like the copy plans."""
    key = ("sweep", level.nghost, _BATCH_CELLS)
    plan = level.layout.plans.get(key)
    if plan is None:
        plan = level.layout.plans[key] = _build_sweep_plan(level)
    return plan


def _build_sweep_plan(level: LevelData) -> list[_Chunk]:
    """Split the boxes, in buffer order, into chunks of at most
    ``_BATCH_CELLS`` pencil cells along any axis (a bigger box is a chunk
    of its own), and lay out each chunk's plan from the per-shape box
    stencils cached in ``level.stencils``."""
    stencils = []
    for indices, view in level.groups:
        key = ("sweep", view.shape[2:], level.nghost)
        if key not in level.stencils:
            # Kept for the hierarchy's life, so as int32 like the plans.
            valid, axes = _box_stencil(*key[1:])
            level.stencils[key] = (valid.astype(np.int32),
                                   [tuple(a.astype(np.int32) for a in axis) for axis in axes])
        stencils.append((indices, level.stencils[key]))
    chunks: list[list[tuple[int, int, int]]] = [[]]  # (stencil, first row, end row)
    cells = 0
    for s, (indices, (_, axes)) in enumerate(stencils):
        cost = max(pencils.size for pencils, _, _ in axes)
        for row in range(len(indices)):
            if cells + cost > _BATCH_CELLS and chunks[-1]:
                chunks.append([])
                cells = 0
            pieces = chunks[-1]
            if pieces and pieces[-1][0] == s:
                pieces[-1] = (s, pieces[-1][1], row + 1)
            else:
                pieces.append((s, row, row + 1))
            cells += cost
    return [_chunk_plan(level, stencils, pieces) for pieces in chunks]


def _chunk_plan(level: LevelData, stencils, pieces) -> _Chunk:
    """Concatenate the box stencils of ``pieces`` into one :class:`_Chunk`."""
    boxes: list[int] = []
    starts, valid = [], []
    axes = [([], [], []) for _ in range(level.layout.ndim)]
    nvalid = 0
    bases = [[0, 0] for _ in axes]  # pencil cells and faces so far, per axis
    for s, first, end in pieces:
        indices, (local, stencil) = stencils[s]
        rows = np.arange(end - first)[:, None]
        at = level.offsets[indices[first:end]][:, None]
        boxes += indices[first:end]
        starts.append(nvalid + rows[:, 0] * local.size)
        valid.append((at + local).ravel())
        nvalid += (end - first) * local.size
        for (pencils, faces, cells), out, base in zip(stencil, axes, bases):
            out[0].append((at + pencils).ravel())
            out[1].append((base[0] + rows * pencils.size + faces).ravel())
            out[2].append((base[1] + rows * faces.size + cells).ravel())
            base[0] += (end - first) * pencils.size
            base[1] += (end - first) * faces.size
    return _Chunk(
        np.array(boxes),
        np.concatenate(starts),
        _index(valid),
        tuple(tuple(_index(part) for part in out) for out in axes),
    )


def _index(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenated plan indices as int32, which halves a plan's memory."""
    return np.concatenate(parts).astype(np.int32)


class PolytropicGasSolver:
    """Euler equations with gamma-law EOS; unsplit MUSCL-HLL Godunov update.

    Parameters
    ----------
    gamma:
        Ratio of specific heats (1.4 for air, Chombo's default).
    cfl:
        Courant number (shared across the unsplit update).
    order:
        1 = piecewise-constant Godunov, 2 = MUSCL minmod reconstruction
        (second order in space; the time update stays forward Euler).
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

    def stable_dt_level(self, spec, dx: float) -> float:
        """Unsplit CFL limit for one level: ``cfl * dx / sum_d max(|v_d|+c)``."""
        dt = np.inf
        for wave in self._level_waves(spec.data):
            if wave > 0:
                dt = min(dt, self.cfl * dx / wave)
        return float(dt)

    def _level_waves(self, level: LevelData) -> list[float]:
        """Per-box ``sum_d max(|v_d|+c)``: one gather of the valid cells per
        sweep chunk, then one ``maximum.reduceat`` per axis.

        ``max`` is exact, so the result is bit-identical to the per-box loop.
        """
        waves = np.zeros(len(level.layout))
        buffer = level.buffer
        for chunk in _sweep_plan(level):
            rho, vel, p = self.primitives(np.take(buffer, chunk.valid, axis=1))
            c = np.sqrt(self.gamma * p / rho)
            for speed in vel:
                waves[chunk.boxes] += np.maximum.reduceat(np.abs(speed) + c, chunk.starts)
        return waves.tolist()

    def stable_dt(self, hierarchy: AMRHierarchy) -> float:
        """Global (non-subcycled) CFL limit over all levels."""
        dt = min(
            self.stable_dt_level(spec, hierarchy.dx(level))
            for level, spec in enumerate(hierarchy.levels)
        )
        if not np.isfinite(dt):
            raise GeometryError("no finite CFL limit; state may be uninitialized")
        return float(dt)

    def advance(self, arr: np.ndarray, dx: float, dt: float) -> None:
        """One unsplit conservative update of a ghosted box array (in place):
        the divergence of the HLL face fluxes per axis over the ``n_d + 1``
        interior faces, all computed from the old state, then physical
        floors."""
        ndim = arr.ndim - 1
        fluxes = [self._hll_flux(*self._face_states(arr, axis), axis)
                  for axis in range(ndim)]
        interior_idx = (slice(None), *self._interior(ndim, self.nghost))
        flux_div = np.zeros_like(arr[interior_idx])
        for axis, F in enumerate(fluxes):
            # F has one more entry along `axis` than the interior; difference it.
            hi = self._axis_slice(ndim, axis, slice(1, None))
            lo = self._axis_slice(ndim, axis, slice(None, -1))
            flux_div += (F[hi] - F[lo]) / dx
        arr[interior_idx] -= dt * flux_div
        self._apply_floors(arr[interior_idx])

    def advance_boxes(self, level: LevelData, dx: float, dt: float) -> None:
        """Advance a whole :class:`~repro.amr.level.LevelData` in place, one
        sweep per axis over each chunk's pencils (:func:`_sweep_plan`).

        Bit-identical to :meth:`advance` box by box: every op is
        elementwise on the same inputs (``primitives`` reduces over the
        same leading component axis), only the faces each box needs reach
        the Riemann solver, ``flux_div`` sums the axes in the same order,
        and the values computed where two pencils meet are never read.
        Ghost cells are read, never written.
        """
        buffer = level.buffer
        for chunk in _sweep_plan(level):
            flux_div = np.zeros((level.ncomp, chunk.valid.size))
            for axis, (pencils, faces, cells) in enumerate(chunk.axes):
                UL, UR = self._pencil_states(np.take(buffer, pencils, axis=1), faces)
                F = self._hll_flux(UL, UR, axis)
                flux_div += np.take(F[:, 1:] - F[:, :-1], cells, axis=1) / dx
            U = np.take(buffer, chunk.valid, axis=1)
            U -= dt * flux_div
            self._apply_floors(U)
            buffer[:, chunk.valid] = U

    def _apply_floors(self, U: np.ndarray) -> None:
        """Floors guard against negative density/pressure from strong shocks."""
        rho = np.maximum(U[0], _RHO_FLOOR, out=U[0])
        # Already floored: primitives' own floor would return rho unchanged.
        vel = U[1:-1] / rho
        kinetic = 0.5 * rho * np.sum(vel * vel, axis=0)
        np.maximum(U[-1], kinetic + _P_FLOOR / (self.gamma - 1.0), out=U[-1])

    def tag_cells(self, dense: np.ndarray, level: int, dx: float) -> np.ndarray:
        """Refine on relative undivided density differences (shock tracking)."""
        rho = dense[0]
        scale = np.nanmean(np.abs(rho))
        if not np.isfinite(scale) or scale == 0:
            scale = 1.0
        return tag_undivided_difference(rho / scale, self.tag_threshold)

    def work_per_cell(self) -> float:
        """Relative cost of one cell update, in the cost model's work units."""
        return 8.0

    # -- numerics ------------------------------------------------------------

    @staticmethod
    def _interior(ndim: int, g: int) -> tuple[slice, ...]:
        return tuple(slice(g, -g) for _ in range(ndim))

    def _face_states(self, U: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Left/right states at the ``n_interior + 1`` faces along ``axis``
        of a ghosted box array.

        Other axes are restricted to the interior.  With ``order == 2`` a
        minmod-limited linear reconstruction is used.
        """
        g = self.nghost
        ndim = U.ndim - 1

        def band(offset_lo: int, offset_hi: int) -> np.ndarray:
            """Slice: interior on other axes, [g+offset_lo, -g+offset_hi) on axis."""
            slc: list[slice] = [slice(None)]
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
            UL = center[self._axis_slice(ndim, axis, slice(None, -1))]
            UR = center[self._axis_slice(ndim, axis, slice(1, None))]
            return UL, UR
        left = band(-2, 0)
        right = band(0, 2)
        dl = center - left
        dr = right - center
        slope = self._minmod(dl, dr)
        recon_l = center + 0.5 * slope  # right face of each cell
        recon_r = center - 0.5 * slope  # left face of each cell
        UL = recon_l[self._axis_slice(ndim, axis, slice(None, -1))]
        UR = recon_r[self._axis_slice(ndim, axis, slice(1, None))]
        return UL, UR

    def _pencil_states(self, X: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_face_states` on concatenated pencils ``X`` ``(ncomp, m)``:
        the left/right states at ``faces`` (left cell positions, minus one),
        with one difference array for both minmod arguments."""
        center = X[:, 1:-1]
        if self.order == 1:
            return np.take(center, faces, axis=1), np.take(center, faces + 1, axis=1)
        diff = X[:, 1:] - X[:, :-1]
        size = np.abs(diff)
        dl = diff[:, :-1]
        # _minmod(dl, diff[:, 1:]): where both differences share a strict
        # sign, the smaller magnitude carries that sign, so it is the one
        # `_minmod` selects; 0 elsewhere, NaN included.
        half = _zero_unless(np.copysign(np.minimum(size[:, :-1], size[:, 1:]), dl),
                            dl * diff[:, 1:] > 0)
        half *= 0.5
        recon_l = center + half  # right face of each cell
        recon_r = center - half  # left face of each cell
        return np.take(recon_l, faces, axis=1), np.take(recon_r, faces + 1, axis=1)

    @staticmethod
    def _axis_slice(ndim: int, axis: int, sl: slice) -> tuple[slice, ...]:
        out: list[slice] = [slice(None)]
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
        np.multiply(rho, vd, out=F[0])
        for k in range(vel.shape[0]):
            # rho * vel[axis] is F[0]: the same product, not recomputed.
            np.multiply(F[0] if k == axis else rho * vel[k], vd, out=F[1 + k])
        F[1 + axis] += p
        np.multiply(U[-1] + p, vd, out=F[-1])
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
        np.copyto(denom, 1e-14, where=np.abs(denom) < 1e-14)
        # (sR*FL - sL*FR + (sL*sR)*(UR - UL)) / denom, accumulated in place.
        F = sR * FL
        F -= sL * FR
        jump = UR - UL
        F += np.multiply(sL * sR, jump, out=jump)
        F /= denom
        # Supersonic faces take the upwind flux; sL >= 0 wins over sR <= 0.
        np.copyto(F, FR, where=sR <= 0)
        np.copyto(F, FL, where=sL >= 0)
        return F
