"""Level data containers with ghost cells (Chombo's ``LevelData<FArrayBox>``).

A :class:`LevelData` owns one NumPy array per layout box, each padded with
``nghost`` ghost cells per side.  Arrays have shape ``(ncomp, *padded)``.
:meth:`exchange` fills ghost cells from neighbouring boxes (including
periodic images); ghost cells on the physical boundary are handled by
:meth:`fill_physical`, and ghosts hanging over a coarse-fine boundary are
interpolated by the hierarchy.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.amr.box import Box
from repro.amr.layout import BoxLayout, _overlaps
from repro.errors import GeometryError

__all__ = ["LevelData"]


def _region_slices(lo: np.ndarray, hi: np.ndarray, origin: np.ndarray) -> list[tuple]:
    """``(slice(None), *spatial)`` indices of each row's box ``[lo, hi]``.

    Rows of the ``(m, ndim)`` arrays give one inclusive box each, placed
    in a ``(ncomp, ...)`` array whose first spatial cell is ``origin``.
    """
    starts = (lo - origin).tolist()
    stops = (hi - origin + 1).tolist()
    return [(slice(None), *map(slice, a, b)) for a, b in zip(starts, stops)]


def _check_periodic_ghosts(domain: Box, nghost: int) -> None:
    """Reject ghost regions wider than the periodic ``domain``.

    Ghosts are filled from the -e/0/+e periodic images only, and those
    reach every ghost cell exactly when ``nghost <= e`` on each axis.
    """
    for axis, extent in enumerate(domain.shape):
        if nghost > extent:
            raise GeometryError(
                f"nghost {nghost} exceeds the periodic domain's extent {extent} "
                f"on axis {axis}"
            )


class LevelData:
    """Per-box arrays over a :class:`~repro.amr.layout.BoxLayout`."""

    def __init__(
        self,
        layout: BoxLayout,
        ncomp: int = 1,
        nghost: int = 0,
        dtype: np.dtype | type = np.float64,
    ):
        if ncomp < 1:
            raise GeometryError(f"ncomp must be >= 1, got {ncomp}")
        if nghost < 0:
            raise GeometryError(f"nghost must be >= 0, got {nghost}")
        self.layout = layout
        self.ncomp = int(ncomp)
        self.nghost = int(nghost)
        self.dtype = np.dtype(dtype)
        self.data: list[np.ndarray] = [
            np.zeros((ncomp, *box.grow(nghost).shape), dtype=self.dtype)
            for box in layout
        ]

    # -- geometry helpers --------------------------------------------------

    def grown_box(self, index: int) -> Box:
        """The padded (ghosted) box for array ``index``."""
        return self.layout.boxes[index].grow(self.nghost)

    def valid_view(self, index: int) -> np.ndarray:
        """View of the interior (non-ghost) cells of box ``index``."""
        g = self.nghost
        arr = self.data[index]
        return arr[(slice(None), *(slice(g, s - g) for s in arr.shape[1:]))]

    @property
    def nbytes(self) -> int:
        """Total bytes across all box arrays (ghosts included)."""
        return sum(arr.nbytes for arr in self.data)

    @property
    def valid_cells(self) -> int:
        """Total interior cells across the level."""
        return self.layout.total_cells

    # -- initialization ----------------------------------------------------

    def fill(self, value: float, comp: int | None = None) -> None:
        """Set every cell (ghosts included) to ``value``."""
        for arr in self.data:
            if comp is None:
                arr[...] = value
            else:
                arr[comp] = value

    def set_from_function(self, fn: Callable[..., np.ndarray], dx: float = 1.0) -> None:
        """Initialize interior cells from ``fn(*cell_center_coords) -> (ncomp, ...)``.

        Cell centers are ``(i + 0.5) * dx`` per direction.  ``fn`` receives
        one meshgrid array per dimension and must return an array whose
        leading axis is the component axis (or a plain array if
        ``ncomp == 1``).
        """
        for i, box in enumerate(self.layout):
            axes = [
                (np.arange(l, h + 1, dtype=np.float64) + 0.5) * dx
                for l, h in zip(box.lo, box.hi)
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            values = np.asarray(fn(*mesh), dtype=self.dtype)
            view = self.valid_view(i)
            if values.shape == view.shape:
                view[...] = values
            elif self.ncomp == 1 and values.shape == view.shape[1:]:
                view[0] = values
            else:
                raise GeometryError(
                    f"function returned shape {values.shape}, expected {view.shape}"
                )

    # -- ghost communication -------------------------------------------------

    def exchange(self, periodic_domain: Box | None = None) -> int:
        """Fill ghost cells from neighbouring boxes on the same level.

        With ``periodic_domain`` given, periodic images across the domain
        are included.  Returns the number of bytes copied (the workload
        capture uses this as the level's halo traffic).
        """
        if self.nghost == 0:
            return 0
        cells_moved = 0
        data = self.data
        for i, j, dst_idx, src_idx, cells in self._exchange_plan(periodic_domain):
            data[i][dst_idx] = data[j][src_idx]
            cells_moved += cells
        return cells_moved * self.ncomp * self.dtype.itemsize

    def _exchange_plan(
        self, periodic_domain: Box | None
    ) -> list[tuple[int, int, tuple, tuple, int]]:
        """Copy plan ``(dst, src, dst_idx, src_idx, cells)`` for :meth:`exchange`.

        The layout is immutable and the box geometry fixed, so the plan is
        computed once per (nghost, domain) and cached on the layout; the
        per-step exchange then reduces to slice assignments.

        Periodic images are the product of per-axis -e/0/+e shifts, so
        overlap is tested per axis on ``(n, 3, n)`` corner arrays and the
        axes are combined by broadcasting; the combined mask's C order is
        (box i, shift in meshgrid order, box j).
        """
        key = ("exchange", self.nghost, periodic_domain)
        plan = self.layout.plans.get(key)
        if plan is not None:
            return plan
        g = self.nghost
        los, his = self.layout._corner_arrays()
        n, ndim = los.shape
        if periodic_domain is None:
            offsets = np.zeros((ndim, 1), dtype=np.int64)
        else:
            _check_periodic_ghosts(periodic_domain, g)
            offsets = np.array(periodic_domain.shape, dtype=np.int64)[:, None] * [-1, 0, 1]
        nshift = offsets.shape[1]
        glo, ghi = los - g, his + g
        hit = np.ones((n, *(nshift,) * ndim, n), dtype=bool)
        for d in range(ndim):
            src_lo = los[:, d] + offsets[d][:, None]  # (nshift, n)
            src_hi = his[:, d] + offsets[d][:, None]
            axis_hit = (src_lo <= ghi[:, d, None, None]) & (src_hi >= glo[:, d, None, None])
            shape = [n] + [1] * ndim + [n]
            shape[1 + d] = nshift
            hit &= axis_hit.reshape(shape)
        hit = hit.reshape(n, nshift**ndim, n)
        # A box is not its own neighbour, except through a periodic image.
        hit[np.arange(n), nshift**ndim // 2, np.arange(n)] = False
        i, s, j = np.nonzero(hit)
        shift = np.stack(np.meshgrid(*offsets, indexing="ij"), -1).reshape(-1, ndim)[s]
        lo = np.maximum(glo[i], los[j] + shift)
        hi = np.minimum(ghi[i], his[j] + shift)
        plan = list(zip(
            i.tolist(), j.tolist(),
            _region_slices(lo, hi, glo[i]),
            _region_slices(lo, hi, glo[j] + shift),
            (hi - lo + 1).prod(axis=1).tolist(),
        ))
        self.layout.plans[key] = plan
        return plan

    def fill_physical(self, domain: Box, mode: str = "edge", value: float = 0.0) -> None:
        """Fill ghost cells outside the physical ``domain``.

        ``mode="edge"`` copies the nearest interior cell (outflow/Neumann);
        ``mode="constant"`` writes ``value`` (Dirichlet).
        """
        if self.nghost == 0:
            return
        if mode not in ("edge", "constant"):
            raise GeometryError(f"unknown fill mode {mode!r}")
        g = self.nghost
        for i, box in enumerate(self.layout):
            arr = self.data[i]
            for axis in range(self.layout.ndim):
                # Low side: box face on the domain's low face.
                if box.lo[axis] == domain.lo[axis]:
                    sl = [slice(None)] * arr.ndim
                    sl[1 + axis] = slice(0, g)
                    if mode == "constant":
                        arr[tuple(sl)] = value
                    else:
                        edge = [slice(None)] * arr.ndim
                        edge[1 + axis] = slice(g, g + 1)
                        arr[tuple(sl)] = arr[tuple(edge)]
                if box.hi[axis] == domain.hi[axis]:
                    sl = [slice(None)] * arr.ndim
                    sl[1 + axis] = slice(-g, None)
                    if mode == "constant":
                        arr[tuple(sl)] = value
                    else:
                        edge = [slice(None)] * arr.ndim
                        edge[1 + axis] = slice(-g - 1, -g)
                        arr[tuple(sl)] = arr[tuple(edge)]

    # -- data movement -----------------------------------------------------

    def copy_overlap_from(self, other: "LevelData") -> None:
        """Copy interior data from ``other`` wherever layouts overlap.

        Used during regridding to preserve data on regions kept refined.
        """
        if other.ncomp != self.ncomp:
            raise GeometryError("component count mismatch in copy_overlap_from")
        if self.layout.ndim != other.layout.ndim:
            raise GeometryError("dimension mismatch in copy_overlap_from")
        dlos, dhis = self.layout._corner_arrays()
        slos, shis = other.layout._corner_arrays()
        i, j, lo, hi = _overlaps(dlos, dhis, slos, shis)
        dst = _region_slices(lo, hi, dlos[i] - self.nghost)
        src = _region_slices(lo, hi, slos[j] - other.nghost)
        for a, b, dst_idx, src_idx in zip(i.tolist(), j.tolist(), dst, src):
            self.data[a][dst_idx] = other.data[b][src_idx]

    def to_dense(self, region: Box | None = None, fill: float = np.nan) -> np.ndarray:
        """Assemble a dense ``(ncomp, *region.shape)`` array of interior data.

        Cells of ``region`` not covered by any box are set to ``fill``.
        ``region`` defaults to the layout's covering box.
        """
        target = region if region is not None else self.layout.covering_box()
        out = np.full((self.ncomp, *target.shape), fill, dtype=self.dtype)
        los, his = self.layout._corner_arrays()
        tlo = np.array([target.lo])
        boxes, _, lo, hi = _overlaps(los, his, tlo, np.array([target.hi]))
        dst = _region_slices(lo, hi, tlo)
        src = _region_slices(lo, hi, los[boxes] - self.nghost)
        for i, dst_idx, src_idx in zip(boxes.tolist(), dst, src):
            out[dst_idx] = self.data[i][src_idx]
        return out

    def rank_bytes(self) -> np.ndarray:
        """Bytes held by each virtual rank (ghosts included)."""
        out = np.zeros(self.layout.nranks, dtype=np.int64)
        for arr, rank in zip(self.data, self.layout.ranks):
            out[rank] += arr.nbytes
        return out
