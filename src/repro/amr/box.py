"""Integer box geometry (Chombo's ``Box``/``IntVect``).

A :class:`Box` is an axis-aligned region of index space with *inclusive*
lower and upper corners, matching Chombo's convention.  Boxes are
immutable; every operation returns a new box.  Dimension is inferred from
the corner tuples and may be 1, 2 or 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError

__all__ = ["Box"]


@dataclass(frozen=True)
class Box:
    """An axis-aligned integer box with inclusive corners ``lo`` and ``hi``.

    ``Box((0, 0), (7, 7))`` is an 8x8 patch of cells.  An *empty* box is
    one with ``hi < lo`` in some direction; use :meth:`is_empty` rather
    than constructing them deliberately.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise GeometryError(f"corner ranks differ: {self.lo} vs {self.hi}")
        if not self.lo:
            raise GeometryError("box needs at least one dimension")
        object.__setattr__(self, "lo", tuple(int(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(int(x) for x in self.hi))

    # -- basic queries ----------------------------------------------------

    @property
    def ndim(self) -> int:
        """Spatial dimension of the box."""
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        """Cell counts per direction (all zero if empty)."""
        return tuple(max(0, h - l + 1) for l, h in zip(self.lo, self.hi))

    @property
    def size(self) -> int:
        """Total number of cells (0 if empty)."""
        n = 1
        for extent in self.shape:
            n *= extent
        return n

    def is_empty(self) -> bool:
        """True when any direction has ``hi < lo``."""
        return any(h < l for l, h in zip(self.lo, self.hi))

    def contains_box(self, other: "Box") -> bool:
        """True when ``other`` lies entirely inside this box."""
        self._check_rank(other)
        if other.is_empty():
            return True
        return all(sl <= ol and oh <= sh
                   for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi))

    def _check_rank(self, other: "Box") -> None:
        if other.ndim != self.ndim:
            raise GeometryError(f"mixed box ranks: {self.ndim} vs {other.ndim}")

    # -- constructive operations -------------------------------------------

    def shift(self, offset: tuple[int, ...]) -> "Box":
        """Translate by ``offset``."""
        if len(offset) != self.ndim:
            raise GeometryError(f"offset rank {len(offset)} != box rank {self.ndim}")
        return Box(
            tuple(l + o for l, o in zip(self.lo, offset)),
            tuple(h + o for h, o in zip(self.hi, offset)),
        )

    def grow(self, radius: int) -> "Box":
        """Expand (or shrink for negative ``radius``) by ``radius`` cells per side."""
        return Box(
            tuple(l - radius for l in self.lo),
            tuple(h + radius for h in self.hi),
        )

    def intersect(self, other: "Box") -> "Box":
        """The overlap region (possibly empty)."""
        self._check_rank(other)
        return Box(
            tuple(max(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(min(a, b) for a, b in zip(self.hi, other.hi)),
        )

    def refine(self, ratio: int) -> "Box":
        """Index-space refinement: each cell becomes ``ratio**ndim`` cells."""
        if ratio < 1:
            raise GeometryError(f"refine ratio must be >= 1, got {ratio}")
        return Box(
            tuple(l * ratio for l in self.lo),
            tuple((h + 1) * ratio - 1 for h in self.hi),
        )

    def coarsen(self, ratio: int) -> "Box":
        """Index-space coarsening (floor division, Chombo semantics)."""
        if ratio < 1:
            raise GeometryError(f"coarsen ratio must be >= 1, got {ratio}")
        return Box(
            tuple(l // ratio for l in self.lo),
            tuple(h // ratio for h in self.hi),
        )

    # -- array bridging ---------------------------------------------------

    def slices(self, origin: "Box | None" = None) -> tuple[slice, ...]:
        """NumPy index slices for this box inside an array covering ``origin``.

        ``origin`` defaults to the box itself (a dense array exactly covering
        it).  Raises when this box is not contained in ``origin``.
        """
        base = origin if origin is not None else self
        if origin is not None and not origin.contains_box(self):
            raise GeometryError(f"{self} not contained in {origin}")
        return tuple(
            slice(l - bl, h - bl + 1)
            for l, h, bl in zip(self.lo, self.hi, base.lo)
        )

    # -- splitting ----------------------------------------------------------

    def split_axis(self, axis: int, at: int) -> tuple["Box", "Box"]:
        """Cut perpendicular to ``axis`` so the low part ends at index ``at - 1``.

        ``at`` must lie strictly inside ``(lo[axis], hi[axis]]`` so both
        halves are non-empty.
        """
        if not (self.lo[axis] < at <= self.hi[axis]):
            raise GeometryError(
                f"cut position {at} outside interior of axis {axis} of {self}"
            )
        lo_hi = list(self.hi)
        lo_hi[axis] = at - 1
        hi_lo = list(self.lo)
        hi_lo[axis] = at
        return Box(self.lo, tuple(lo_hi)), Box(tuple(hi_lo), self.hi)

    def chop(self, max_size: int) -> list["Box"]:
        """Recursively split until every extent is at most ``max_size``."""
        if max_size < 1:
            raise GeometryError(f"max_size must be >= 1, got {max_size}")
        if self.is_empty():
            return []
        worst = int(np.argmax(self.shape))
        if self.shape[worst] <= max_size:
            return [self]
        cut = self.lo[worst] + self.shape[worst] // 2
        low, high = self.split_axis(worst, cut)
        return low.chop(max_size) + high.chop(max_size)

    def __repr__(self) -> str:
        return f"Box({self.lo}, {self.hi})"
