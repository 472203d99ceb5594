"""Level data containers with ghost cells (Chombo's ``LevelData<FArrayBox>``).

A :class:`LevelData` keeps a level's boxes in one zero-initialized
``(ncomp, P)`` buffer.  Each box owns a non-overlapping slice of it,
padded with ``nghost`` ghost cells per side, and ``data[i]`` is that
slice as a ``(ncomp, *padded)`` view.  Equal-shape boxes sit next to each
other, so each shape group is one ``(ncomp, k, *padded)`` view
(:attr:`LevelData.groups`) that index plans and restriction work on.

Cell copies go through the level's *owner map*: for each cell of the
layout's covering box, the flat buffer index of the valid cell there, or
-1 where no box covers it.  Plans read it at per-shape cell offsets
(:attr:`LevelData.stencils`), so a new layout costs one pass over its
cells, not one per plan.  :meth:`exchange` fills ghost cells from
neighbouring boxes (including periodic images) with one gather/scatter;
ghost cells on the physical boundary are handled by
:meth:`fill_physical`, and ghosts hanging over a coarse-fine boundary --
the ghosts with no owner -- are interpolated by the hierarchy.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

import numpy as np

from repro.amr.box import Box
from repro.amr.layout import BoxLayout
from repro.errors import GeometryError

__all__ = ["LevelData"]


def _shape_groups(shapes: Iterable[tuple[int, ...]]) -> list[list[int]]:
    """Indices of ``shapes`` grouped by shape, preserving first-seen order."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, shape in enumerate(shapes):
        groups.setdefault(tuple(shape), []).append(i)
    return list(groups.values())


def _check_periodic_ghosts(domain: Box, nghost: int) -> None:
    """Reject ghost regions wider than the periodic ``domain``.

    Such a ghost region would hold some domain cells more than once on
    one side of its box.
    """
    for axis, extent in enumerate(domain.shape):
        if nghost > extent:
            raise GeometryError(
                f"nghost {nghost} exceeds the periodic domain's extent {extent} "
                f"on axis {axis}"
            )


def _flat_strides(shape: tuple[int, ...]) -> list[int]:
    """Row-major flat-index strides of a spatial ``shape``."""
    strides = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    return strides


def _relative(region: Box, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``coords`` ``(ndim, m)`` relative to ``region.lo``, and which lie inside it."""
    rel = coords - np.array(region.lo)[:, None]
    inside = ((rel >= 0) & (rel < np.array(region.shape)[:, None])).all(axis=0)
    return rel, inside


class LevelData:
    """Per-box views of one level buffer over a :class:`~repro.amr.layout.BoxLayout`."""

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
        los, his = layout._corner_arrays()
        padded = [tuple(s) for s in (his - los + 1 + 2 * self.nghost).tolist()]
        self.buffer = np.zeros((self.ncomp, sum(map(math.prod, padded))), dtype=self.dtype)
        #: Buffer column of each box's first (ghost) cell.
        self.offsets = np.zeros(len(padded), dtype=np.int64)
        #: ``(indices, view)`` per shape group; ``view`` is ``(ncomp, k, *padded)``.
        self.groups: list[tuple[list[int], np.ndarray]] = []
        self.data: list[np.ndarray] = [None] * len(padded)  # type: ignore[list-item]
        start = 0
        for indices in _shape_groups(padded):
            shape = padded[indices[0]]
            size = math.prod(shape)
            stop = start + len(indices) * size
            view = self.buffer[:, start:stop].reshape(self.ncomp, len(indices), *shape)
            self.groups.append((indices, view))
            for slot, i in enumerate(indices):
                self.offsets[i] = start + slot * size
                self.data[i] = view[:, slot]
            start = stop
        #: Index stencils per padded box shape (:meth:`_stencil`, and the
        #: solver's sweep stencils).  Shapes recur across regrids, so a
        #: hierarchy shares one dict among all the levels it builds.
        self.stencils: dict[tuple, object] = {}
        self._owner: tuple[Box, np.ndarray] | None = None

    # -- geometry helpers --------------------------------------------------

    def grown_box(self, index: int) -> Box:
        """The padded (ghosted) box for array ``index``."""
        return self.layout.boxes[index].grow(self.nghost)

    def valid_view(self, index: int) -> np.ndarray:
        """View of the interior (non-ghost) cells of box ``index``."""
        g = self.nghost
        arr = self.data[index]
        return arr[(slice(None), *(slice(g, s - g) for s in arr.shape[1:]))]

    def valid_groups(self) -> list[tuple[list[int], np.ndarray]]:
        """:attr:`groups` with the ghosts stripped: ``(ncomp, k, *valid)`` views."""
        g = self.nghost
        return [
            (indices, view[(slice(None), slice(None), *(slice(g, s - g) for s in view.shape[2:]))])
            for indices, view in self.groups
        ]

    @property
    def nbytes(self) -> int:
        """Total bytes across all box arrays (ghosts included)."""
        return self.buffer.nbytes

    def _stencil(self, padded: tuple[int, ...], ghost: bool) -> tuple[np.ndarray, np.ndarray]:
        """Box-local buffer offsets ``(m,)`` of the ghost (``ghost``) or valid
        cells of a ``padded`` box, and their coordinates ``(ndim, m)`` from
        its low ghost corner; cached in :attr:`stencils` as int32, which
        halves what the cache holds for the life of a hierarchy."""
        key = ("cells", padded, self.nghost, ghost)
        if key not in self.stencils:
            valid = np.zeros(padded, dtype=bool)
            valid[tuple(slice(self.nghost, s - self.nghost) for s in padded)] = True
            local = np.flatnonzero(valid != ghost)
            self.stencils[key] = (local.astype(np.int32),
                                  np.array(np.unravel_index(local, padded), dtype=np.int32))
        return self.stencils[key]

    def _cells(self, ghost: bool, region: Box | None = None):
        """Per shape group, the buffer columns ``(m,)`` of its ghost cells
        (``ghost``) or its valid cells, and their global coordinates
        ``(ndim, m)``; given ``region``, which must hold them, their flat
        positions in a C-order array over it instead.  Yielding group by
        group bounds the temporaries."""
        corners = self.layout._corner_arrays()[0] - self.nghost
        if region is not None:
            strides = np.array(_flat_strides(region.shape))
            corners = (corners - region.lo) @ strides
        for indices, view in self.groups:
            local, at = self._stencil(view.shape[2:], ghost)
            columns = (self.offsets[indices][:, None] + local).ravel()
            if region is None:
                yield columns, (corners[indices].T[:, :, None] + at[:, None, :]).reshape(len(at), -1)
            else:
                yield columns, (corners[indices][:, None] + strides @ at).ravel()

    def _owner_map(self) -> tuple[Box, np.ndarray]:
        """``(region, owner)``: the layout's covering box, and for each of
        its cells the buffer column of the valid cell there, -1 where none.
        Built once per level."""
        if self._owner is None:
            region = self.layout.covering_box()
            owner = np.full(region.shape, -1, dtype=np.int64)
            flat = owner.reshape(-1)
            for columns, positions in self._cells(False, region):
                flat[positions] = columns
            self._owner = (region, owner)
        return self._owner

    def _owners_over(self, region: Box) -> np.ndarray:
        """The owner map cut or extended to ``region``: -1 past the covering box."""
        mapped, owner = self._owner_map()
        out = np.full(region.shape, -1, dtype=np.int64)
        inner = region.intersect(mapped)
        if not inner.is_empty():
            out[inner.slices(origin=region)] = owner[inner.slices(origin=mapped)]
        return out

    # -- initialization ----------------------------------------------------

    def fill(self, value: float, comp: int | None = None) -> None:
        """Set every cell (ghosts included) to ``value``."""
        if comp is None:
            self.buffer[...] = value
        else:
            self.buffer[comp] = value

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
        dst, src = self._exchange_plan(periodic_domain)
        for row in self.buffer:  # one component at a time: 1-D gathers are fastest
            row[dst] = row[src]
        return dst.size * self.ncomp * self.dtype.itemsize

    def _exchange_plan(self, periodic_domain: Box | None) -> tuple[np.ndarray, np.ndarray]:
        """Buffer columns ``(dst, src)`` for :meth:`exchange`: every ghost
        cell with an owner, and that owner.

        Boxes are disjoint, so each ghost has at most one owner.  The plan
        depends only on the layout, ``nghost`` and the domain, so it is
        cached on the layout.
        """
        key = ("exchange", self.nghost, periodic_domain)
        plan = self.layout.plans.get(key)
        if plan is None:
            g = self.nghost
            if periodic_domain is None:
                region = self.layout.covering_box().grow(g)
                owner = self._owners_over(region)
            else:
                # The owner map over the domain, grown by a ring that holds
                # the periodic images.
                _check_periodic_ghosts(periodic_domain, g)
                if not periodic_domain.contains_box(self.layout.covering_box()):
                    raise GeometryError(f"layout leaves the periodic domain {periodic_domain}")
                region = periodic_domain.grow(g)
                owner = np.pad(self._owners_over(periodic_domain), g, mode="wrap")
            owner = owner.reshape(-1)
            dst, src = [], []
            for columns, positions in self._cells(True, region):
                found = owner[positions]
                owned = found >= 0
                dst.append(columns[owned])
                src.append(found[owned])
            plan = (np.concatenate(dst), np.concatenate(src))
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
        region = self.layout.covering_box()
        owner = other._owners_over(region).reshape(-1)
        for columns, positions in self._cells(False, region):
            src = owner[positions]
            kept = src >= 0
            self.buffer[:, columns[kept]] = other.buffer[:, src[kept]]

    def to_dense(self, region: Box | None = None, fill: float = np.nan) -> np.ndarray:
        """Assemble a dense ``(ncomp, *region.shape)`` array of interior data.

        Cells of ``region`` not covered by any box are set to ``fill``.
        ``region`` defaults to the layout's covering box.
        """
        target = region if region is not None else self.layout.covering_box()
        owner = self._owners_over(target)
        out = np.empty((self.ncomp, *target.shape), dtype=self.dtype)
        for row, dense in zip(self.buffer, out.reshape(self.ncomp, -1)):
            np.take(row, owner.ravel(), out=dense)
        out[:, owner < 0] = fill  # uncovered cells read column -1 above
        return out

    def rank_bytes(self) -> np.ndarray:
        """Bytes held by each virtual rank (ghosts included)."""
        out = np.zeros(self.layout.nranks, dtype=np.int64)
        for arr, rank in zip(self.data, self.layout.ranks):
            out[rank] += arr.nbytes
        return out
