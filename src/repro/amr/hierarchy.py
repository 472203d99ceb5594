"""The multi-level AMR hierarchy: levels, regridding and interlevel data motion.

An :class:`AMRHierarchy` owns a stack of :class:`LevelSpec` objects, level 0
covering the whole problem domain and each finer level refined by
``ref_ratio``.  The hierarchy implements the Chombo workflow used by the
paper's applications:

- :meth:`fill_ghosts` -- prolong coarse data under fine ghost regions,
  exchange same-level ghosts, apply physical boundary conditions;
- :meth:`average_down` -- conservative restriction keeping coarse data
  consistent with the finest covering level;
- :meth:`regrid` -- Berger-Rigoutsos clustering of buffered tags with
  proper nesting, preserving data on regions that stay refined.

The hierarchy is solver-agnostic; :mod:`repro.amr.stepper` couples it to
the polytropic-gas kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.amr.box import Box
from repro.amr.clustering import cluster_tags
from repro.amr.coarsefine import _zero_unless
from repro.amr.layout import BoxLayout
from repro.amr.level import LevelData, _flat_strides, _relative
from repro.amr.tagging import buffer_tags
from repro.errors import HierarchyError

__all__ = ["AMRHierarchy", "LevelSpec"]


def _restrict_group(group: np.ndarray, ratio: int) -> np.ndarray:
    """:func:`~repro.amr.coarsefine.restrict` over a ``(ncomp, k, *spatial)`` group.

    The blockwise mean reduces over the same trailing sub-axes as a
    per-box restriction, so each box's result is bit-identical to it.
    """
    new_shape = list(group.shape[:2])
    for s in group.shape[2:]:
        new_shape.extend([s // ratio, ratio])
    return group.reshape(new_shape).mean(axis=tuple(3 + 2 * d for d in range(group.ndim - 2)))


@dataclass
class LevelSpec:
    """One level of the hierarchy: a layout and its data."""

    layout: BoxLayout
    data: LevelData


class AMRHierarchy:
    """A block-structured AMR grid hierarchy.

    Parameters
    ----------
    domain:
        Level-0 problem domain (cell-indexed box starting anywhere).
    ncomp, nghost:
        Components and ghost width of the state data on every level.
    ref_ratio:
        Refinement ratio between consecutive levels (Chombo default 2).
    max_levels:
        Total number of levels allowed (1 = no refinement).
    nranks:
        Virtual MPI ranks for load balancing.
    max_box_size, fill_ratio, tag_buffer:
        Grid-generation parameters (Berger-Rigoutsos).
    dx0:
        Level-0 mesh spacing.
    periodic:
        Apply periodic boundary conditions on the domain.
    """

    def __init__(
        self,
        domain: Box,
        ncomp: int = 1,
        nghost: int = 2,
        ref_ratio: int = 2,
        max_levels: int = 2,
        nranks: int = 1,
        max_box_size: int = 32,
        fill_ratio: float = 0.7,
        tag_buffer: int = 2,
        dx0: float = 1.0,
        periodic: bool = True,
        dtype: np.dtype | type = np.float64,
    ):
        if max_levels < 1:
            raise HierarchyError(f"max_levels must be >= 1, got {max_levels}")
        if ref_ratio < 2:
            raise HierarchyError(f"ref_ratio must be >= 2, got {ref_ratio}")
        self.domain = domain
        self.ncomp = ncomp
        self.nghost = nghost
        self.ref_ratio = ref_ratio
        self.max_levels = max_levels
        self.nranks = nranks
        self.max_box_size = max_box_size
        self.fill_ratio = fill_ratio
        self.tag_buffer = tag_buffer
        self.dx0 = float(dx0)
        self.periodic = periodic
        self.dtype = dtype

        # Index stencils per padded box shape, shared by every level built.
        self._stencils: dict[tuple, object] = {}
        self.levels: list[LevelSpec] = [
            self._level(BoxLayout(domain.chop(max_box_size), nranks=nranks))
        ]

    # -- geometry ------------------------------------------------------------

    @property
    def finest_level(self) -> int:
        """Index of the finest active level."""
        return len(self.levels) - 1

    def level_domain(self, level: int) -> Box:
        """The problem domain refined to ``level``'s index space."""
        return self.domain.refine(self.ref_ratio**level)

    def dx(self, level: int) -> float:
        """Mesh spacing at ``level``."""
        return self.dx0 / (self.ref_ratio**level)

    def total_cells(self) -> int:
        """Valid cells summed over all levels."""
        return sum(spec.layout.total_cells for spec in self.levels)

    def total_bytes(self) -> int:
        """State bytes (ghosts included) summed over all levels."""
        return sum(spec.data.nbytes for spec in self.levels)

    def rank_bytes(self) -> np.ndarray:
        """State bytes per virtual rank summed over levels."""
        out = np.zeros(self.nranks, dtype=np.int64)
        for spec in self.levels:
            out += spec.data.rank_bytes()
        return out

    def _level(self, layout: BoxLayout) -> LevelSpec:
        """A zeroed level over ``layout`` that shares this hierarchy's stencils."""
        data = LevelData(layout, self.ncomp, self.nghost, self.dtype)
        data.stencils = self._stencils
        return LevelSpec(layout, data)

    # -- interlevel data motion ----------------------------------------------

    def fill_ghosts(self, level: int) -> int:
        """Fill ghost cells of ``level``: coarse interpolation, exchange, physical BCs.

        Returns bytes moved in the same-level exchange (halo traffic).
        """
        spec = self.levels[level]
        if level > 0:
            self._fill_from_coarser(level)
        domain = self.level_domain(level)
        moved = spec.data.exchange(periodic_domain=domain if self.periodic else None)
        if not self.periodic:
            spec.data.fill_physical(domain, mode="edge")
        return moved

    def _fill_from_coarser(self, level: int, include_interior: bool = False) -> None:
        """Interpolate coarse data onto fine ghost (and optionally valid) cells.

        Ordinary ghost fills only need the coarse-fine boundary cells:
        ghosts covered by another fine box's valid data are refreshed by
        the same-level exchange that always follows, and the valid
        interior is never touched.  Those surviving cells are gathered in
        one vectorized pass straight from the coarse buffer, with van-Leer
        slopes evaluated only at their parent cells -- bit-identical to
        prolonging each box's whole grown region because the limited
        slopes are local (one coarse neighbour per side).

        When regridding creates new boxes (``include_interior``) the same
        gather covers the valid cells instead; ghost cells are left as
        they are, since every consumer of ghost data sits behind the
        :meth:`fill_ghosts` that opens the next step.
        """
        fine = self.levels[level]
        g = fine.data.nghost
        # Parents of any fine ghost cell lie within ceil(g/r) coarse cells
        # of the domain; one more ring supplies their slope neighbours.
        pad = -(-g // self.ref_ratio) + 1

        plan = self._ghost_fill_plan(level, pad, interior=include_interior)
        if plan is None:
            return

        _, inverse, offsets, dst, columns, missing = plan
        # Each parent with its neighbours along every axis, read straight
        # from the coarse buffer: (ncomp, 1 + 2 * ndim, parents).
        stencil = np.take(self.levels[level - 1].data.buffer, columns, axis=1)
        if missing is not None:
            stencil[:, missing] = 0.0  # parts of the domain no coarse box covers
        cur = stencil[:, 0]
        vals = np.take(cur, inverse, axis=1)
        for axis, offset in enumerate(offsets):
            nxt = stencil[:, 1 + 2 * axis]
            prv = stencil[:, 2 + 2 * axis]
            # Van-Leer limited central slope, replicating _limited_slope's
            # arithmetic op for op so the gathered values match prolong's.
            # Slopes are elementwise per parent cell, so evaluating them
            # once per distinct parent and expanding is exact.
            fwd = nxt - cur
            bwd = cur - prv
            central = 0.5 * (fwd + bwd)
            same_sign = (fwd * bwd) > 0
            mag = np.minimum(np.abs(central), 2 * np.minimum(np.abs(fwd), np.abs(bwd)))
            slope = _zero_unless(np.sign(central) * mag, same_sign)
            term = np.take(slope, inverse, axis=1)
            term *= offset
            vals += term
        for row, values in zip(fine.data.buffer, vals):
            row[dst] = values

    def _ghost_fill_plan(self, level: int, pad: int, interior: bool = False):
        """Gather/scatter plan for the coarse-fine ghost fill of ``level``.

        The plan covers the fine ghost cells that the level's exchange
        plan does not fill, those with no owner on the level (read at
        their periodic image when periodic): exactly the cells whose
        interpolated values survive the exchange that follows.  Ghosts
        past a non-periodic boundary are left to ``fill_physical``.  With
        ``interior`` the plan instead covers every valid cell (the regrid
        fill).

        The plan is ``(unique, inverse, offsets, dst, columns, missing)``:
        the distinct parent cells' flat indices in the coarse domain padded
        by ``pad`` cells, the inverse mapping each gathered cell to its
        parent, the per-axis fractional offsets of the fine centres inside
        the parent cell, the gathered cells' buffer columns, and the coarse
        buffer columns ``(1 + 2 * ndim, parents)`` of each parent and its
        neighbours along every axis, with the mask of those no box covers.
        The ghost plan is cached on the fine layout until the coarse layout
        changes; the interior plan serves only the regrid that creates the
        layout and is not kept.  Returns ``None`` when no cell needs
        interpolation.
        """
        fine = self.levels[level]
        coarse = self.levels[level - 1]
        layout = fine.layout
        r = self.ref_ratio
        cdomain = self.level_domain(level - 1)
        key = ("coarse_fill", fine.data.nghost, r, self.periodic, cdomain)
        entry = layout.plans.get(key)
        if not interior and entry is not None and entry[0] is coarse.layout:
            return entry[1]
        fdomain = self.level_domain(level)
        if not interior:
            exchanged = np.zeros(fine.data.buffer.shape[1], dtype=bool)
            exchanged[fine.data._exchange_plan(fdomain if self.periodic else None)[0]] = True
        dsts, coord_parts = [], []
        for columns, coords in fine.data._cells(ghost=not interior):
            if not interior:
                needed = ~exchanged[columns]
                if not self.periodic:
                    needed &= _relative(fdomain, coords)[1]
                columns, coords = columns[needed], coords[:, needed]
            dsts.append(columns)
            coord_parts.append(coords)
        dst = np.concatenate(dsts)
        plan = None
        if dst.size:
            coords = np.concatenate(coord_parts, axis=1)
            padded = tuple(s + 2 * pad for s in cdomain.shape)
            strides = _flat_strides(padded)
            # Same table prolong uses: (k + 0.5)/ratio - 0.5 per fine sub-cell.
            offs_table = (np.arange(r) + 0.5) / r - 0.5
            parent = np.zeros(dst.size, dtype=np.int64)
            offsets = []
            for axis, gx in enumerate(coords):
                pc = gx // r
                offsets.append(offs_table[gx - pc * r])
                parent += (pc - (cdomain.lo[axis] - pad)) * strides[axis]
            # np.unique(parent, return_inverse=True), by marking the
            # padded coarse domain instead of sorting.
            seen = np.zeros(math.prod(padded), dtype=bool)
            seen[parent] = True
            unique = np.flatnonzero(seen)
            # Coarse columns of each parent and its neighbours along every
            # axis, from the owner map padded as interpolation pads coarse
            # data (periodic wrap, else edge extension, as in the test
            # oracles): each padded cell names the column its value comes
            # from, -1 for a domain cell no coarse box covers.
            owner = np.pad(coarse.data._owners_over(cdomain), pad,
                           mode="wrap" if self.periodic else "edge").reshape(-1)
            steps = [0] + [step for stride in strides for step in (stride, -stride)]
            columns = np.stack([owner[unique + step] for step in steps])
            missing = columns < 0
            plan = (unique, (np.cumsum(seen) - 1)[parent], offsets, dst, columns,
                    missing if missing.any() else None)
        if not interior:
            layout.plans[key] = (coarse.layout, plan)
        return plan

    def average_down(self) -> None:
        """Restrict every fine level onto the coarser one beneath it."""
        for level in range(self.finest_level, 0, -1):
            self.average_down_pair(level)

    def average_down_pair(self, fine_level: int) -> None:
        """Restrict level ``fine_level`` onto level ``fine_level - 1``."""
        if not (1 <= fine_level <= self.finest_level):
            raise HierarchyError(
                f"no level pair ({fine_level - 1}, {fine_level}) to restrict"
            )
        fine = self.levels[fine_level]
        coarse = self.levels[fine_level - 1]
        plan = self._avgdown_plan(fine, coarse)
        for (_, valid), (src, dst) in zip(fine.data.valid_groups(), plan):
            averaged = _restrict_group(valid, self.ref_ratio).reshape(self.ncomp, -1)
            coarse.data.buffer[:, dst] = averaged[:, src]

    def _avgdown_plan(
        self, fine: LevelSpec, coarse: LevelSpec
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Cached ``(src, dst)`` per fine shape group for :meth:`average_down_pair`.

        ``src`` picks the group's restricted cells that a coarse box
        covers, in ``(k, *coarse)`` C order, and ``dst`` is their coarse
        buffer columns, read off the coarse owner map.  The plan is cached
        on the fine layout and rebuilt when the coarse layout object
        changes (the stored reference also keeps it alive, so an ``is``
        check can never alias a recycled object).
        """
        r = self.ref_ratio
        key = ("avgdown", r, coarse.data.nghost)
        entry = fine.layout.plans.get(key)
        if entry is not None and entry[0] is coarse.layout:
            return entry[1]
        region = fine.layout.covering_box().coarsen(r)
        owner = coarse.data._owners_over(region).reshape(-1)
        strides = np.array(_flat_strides(region.shape))
        # Floor division, matching Box.coarsen.
        corners = (fine.layout._corner_arrays()[0] // r - region.lo) @ strides
        plan = []
        for indices, valid in fine.data.valid_groups():
            at = np.indices(tuple(s // r for s in valid.shape[2:])).reshape(len(strides), -1)
            found = owner[(corners[indices][:, None] + strides @ at).ravel()]
            src = np.flatnonzero(found >= 0)
            plan.append((src, found[src]))
        fine.layout.plans[key] = (coarse.layout, plan)
        return plan

    # -- regridding ------------------------------------------------------------

    def regrid(self, tag_masks: dict[int, np.ndarray]) -> bool:
        """Rebuild levels 1..max from tag masks; returns True if grids changed.

        ``tag_masks[l]`` is a boolean array over the full ``level_domain(l)``
        shape marking cells of level ``l`` that need refinement.  Levels
        whose parent produces no tags are dropped.  Data on surviving
        regions is preserved; newly refined regions are interpolated from
        the (new) coarser level.
        """
        new_boxes: dict[int, list[Box]] = {}
        # Finest possible parent first so nesting tags propagate downward.
        for parent in range(self.max_levels - 2, -1, -1):
            if parent > self.finest_level:
                continue
            mask = tag_masks.get(parent)
            domain = self.level_domain(parent)
            if mask is None:
                mask = np.zeros(domain.shape, dtype=bool)
            else:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != domain.shape:
                    raise HierarchyError(
                        f"tag mask for level {parent} has shape {mask.shape}, "
                        f"expected {domain.shape}"
                    )
                mask = mask.copy()
            mask = buffer_tags(mask, self.tag_buffer)
            # Proper nesting: the new level parent+2 must sit inside the new
            # level parent+1, so project its boxes (grown by one coarse cell)
            # into the parent's tags.
            zero_domain = domain.shift(tuple(-l for l in domain.lo))
            for gbox in new_boxes.get(parent + 2, []):
                proj = gbox.coarsen(self.ref_ratio**2).grow(1).intersect(domain)
                if not proj.is_empty():
                    proj0 = proj.shift(tuple(-l for l in domain.lo))
                    mask[proj0.slices(origin=zero_domain)] = True
            clusters = cluster_tags(
                mask,
                fill_ratio=self.fill_ratio,
                max_box_size=max(2, self.max_box_size // self.ref_ratio),
                origin=domain.lo,
            )
            fine = []
            for cbox in clusters:
                fine.extend(cbox.refine(self.ref_ratio).chop(self.max_box_size))
            if fine:
                new_boxes[parent + 1] = fine

        return self._apply_regrid(new_boxes)

    def _apply_regrid(self, new_boxes: dict[int, list[Box]]) -> bool:
        old_levels = self.levels
        changed = False
        rebuilt: list[LevelSpec] = [old_levels[0]]
        for level in range(1, self.max_levels):
            boxes = new_boxes.get(level)
            if not boxes:
                changed = changed or level <= len(old_levels) - 1
                break
            layout = BoxLayout(boxes, nranks=self.nranks)
            if (level <= len(old_levels) - 1
                    and set(layout.boxes) == set(old_levels[level].layout.boxes)):
                rebuilt.append(old_levels[level])
                continue
            changed = True
            spec = self._level(layout)
            rebuilt.append(spec)
            # Interpolate from the (already rebuilt) coarser level, then
            # keep old fine data where regions survived.
            self.levels = rebuilt  # so _fill_from_coarser sees new stack
            self._fill_from_coarser(level, include_interior=True)
            if level <= len(old_levels) - 1:
                spec.data.copy_overlap_from(old_levels[level].data)
        self.levels = rebuilt
        return changed
