"""Distributed box layouts (Chombo's ``DisjointBoxLayout``).

A :class:`BoxLayout` is an ordered collection of pairwise-disjoint boxes on
one AMR level together with a rank assignment.  The default assignment is
Chombo's load-balancing heuristic: boxes sorted by descending cell count
are placed greedily on the least-loaded rank, which keeps per-rank load
within one max-box of optimal.

The *rank* here is a virtual MPI rank: the workload-capture layer
(:mod:`repro.workload.capture`) uses it to record per-rank data volumes
and memory for the staging experiments.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

import numpy as np

from repro.amr.box import Box
from repro.errors import GeometryError

__all__ = ["BoxLayout", "load_balance"]


def load_balance(boxes: Sequence[Box], nranks: int) -> list[int]:
    """Greedy longest-processing-time assignment of boxes to ranks.

    Returns ``rank[i]`` for each box, minimizing (approximately) the
    maximum per-rank cell count.  Deterministic: ties broken by rank id.
    """
    if nranks < 1:
        raise GeometryError(f"need at least one rank, got {nranks}")
    assignment = [0] * len(boxes)
    # Heap of (load, rank); heapq tie-breaks on rank id, giving determinism.
    heap: list[tuple[int, int]] = [(0, r) for r in range(nranks)]
    heapq.heapify(heap)
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].size, i))
    for i in order:
        load, rank = heapq.heappop(heap)
        assignment[i] = rank
        heapq.heappush(heap, (load + boxes[i].size, rank))
    return assignment


def _overlaps(
    alo: np.ndarray, ahi: np.ndarray, blo: np.ndarray, bhi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Overlapping pairs of two box sets given as ``(n, ndim)`` corner arrays.

    Returns ``(i, j, lo, hi)``: the pairs with box ``a[i]`` overlapping
    box ``b[j]``, in row-major ``(i, j)`` order, and the corners of each
    pair's intersection.  Boxes overlap iff ``lo_a <= hi_b`` and
    ``lo_b <= hi_a`` in every direction.
    """
    hit = ((alo[:, None, :] <= bhi[None, :, :]) & (blo[None, :, :] <= ahi[:, None, :])).all(axis=2)
    i, j = np.nonzero(hit)
    return i, j, np.maximum(alo[i], blo[j]), np.minimum(ahi[i], bhi[j])


class BoxLayout:
    """Pairwise-disjoint boxes plus their rank assignment.

    Parameters
    ----------
    boxes:
        The level's patches.  Disjointness is verified (O(n^2) with a
        cheap bounding-box prefilter; layouts are typically small).
    nranks:
        Number of virtual ranks to balance over.
    ranks:
        Explicit assignment overriding the load balancer (for tests).
    """

    def __init__(
        self,
        boxes: Sequence[Box],
        nranks: int = 1,
        ranks: Sequence[int] | None = None,
    ):
        self.boxes: tuple[Box, ...] = tuple(boxes)
        if not self.boxes:
            raise GeometryError("layout needs at least one box")
        ndim = self.boxes[0].ndim
        for box in self.boxes:
            if box.ndim != ndim:
                raise GeometryError("mixed dimensions in layout")
            if box.is_empty():
                raise GeometryError(f"empty box in layout: {box}")
        self._los = np.array([b.lo for b in self.boxes], dtype=np.int64)
        self._his = np.array([b.hi for b in self.boxes], dtype=np.int64)
        self._verify_disjoint()
        #: Sum of cells across all boxes.
        self.total_cells = int((self._his - self._los + 1).prod(axis=1).sum())
        # Copy plans (exchange, coarse-fine fill, average-down) keyed by
        # their parameters; layouts are immutable, so a plan built once is
        # valid until a regrid replaces the layout.
        self.plans: dict[tuple, object] = {}
        self.nranks = int(nranks)
        if ranks is not None:
            if len(ranks) != len(self.boxes):
                raise GeometryError("ranks length must match boxes length")
            if any(not (0 <= r < nranks) for r in ranks):
                raise GeometryError("rank assignment out of range")
            self.ranks = tuple(int(r) for r in ranks)
        else:
            self.ranks = tuple(load_balance(self.boxes, nranks))

    def _corner_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (n, ndim) arrays of box corners for vectorized queries."""
        return self._los, self._his

    def _verify_disjoint(self) -> None:
        i, j, _, _ = _overlaps(self._los, self._his, self._los, self._his)
        (clash,) = np.nonzero(i != j)
        if clash.size:
            k = clash[0]
            raise GeometryError(
                f"layout boxes overlap: {self.boxes[i[k]]} and {self.boxes[j[k]]}"
            )

    # -- queries ------------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Spatial dimension of the layout."""
        return self.boxes[0].ndim

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self) -> Iterator[Box]:
        return iter(self.boxes)

    def covering_box(self) -> Box:
        """The smallest box containing every layout box."""
        return Box(tuple(self._los.min(axis=0).tolist()), tuple(self._his.max(axis=0).tolist()))
