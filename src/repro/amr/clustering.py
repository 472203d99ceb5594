"""Berger-Rigoutsos grid generation.

Turns a boolean tag mask into a set of boxes covering every tagged cell
with at least a given fill efficiency.  This is the classic
Berger-Rigoutsos (1991) algorithm used by Chombo's ``BRMeshRefine``:

1. Take the minimal bounding box of the tags.
2. If its fill ratio (tagged / total cells) is acceptable and it is small
   enough, accept it.
3. Otherwise find a cut plane: prefer a *hole* (zero of the tag
   signature), else the strongest *inflection* of the signature's second
   difference, else the midpoint; recurse on both halves.
"""

from __future__ import annotations

import math

import numpy as np

from repro.amr.box import Box
from repro.errors import GeometryError

__all__ = ["cluster_tags"]


def cluster_tags(
    tags: np.ndarray,
    fill_ratio: float = 0.7,
    max_box_size: int = 32,
    origin: tuple[int, ...] | None = None,
) -> list[Box]:
    """Cover all True cells of ``tags`` with boxes.

    Parameters
    ----------
    tags:
        Boolean mask in level index space.
    fill_ratio:
        Minimum fraction of tagged cells a produced box must contain.
    max_box_size:
        Maximum extent of any produced box in any direction.
    origin:
        Index-space coordinate of ``tags[0, 0, ...]``; defaults to zeros.

    Returns an empty list when nothing is tagged.  Produced boxes are
    pairwise disjoint and jointly cover every tagged cell.
    """
    if not (0.0 < fill_ratio <= 1.0):
        raise GeometryError(f"fill_ratio must be in (0, 1], got {fill_ratio}")
    if max_box_size < 1:
        raise GeometryError(f"max_box_size must be >= 1, got {max_box_size}")
    tags = np.asarray(tags, dtype=bool)
    if origin is None:
        origin = tuple(0 for _ in range(tags.ndim))
    if len(origin) != tags.ndim:
        raise GeometryError(f"origin rank {len(origin)} != tags rank {tags.ndim}")
    if not tags.any():
        return []

    along = tags.sum(axis=tuple(range(1, tags.ndim))).tolist()
    accepted: list[tuple[list[int], list[int]]] = []
    _recurse(tags, [0] * tags.ndim, _signatures(tags, 0, along), fill_ratio, max_box_size,
             accepted)
    return [
        Box(tuple(l + o for l, o in zip(lo, origin)),
            tuple(l + n - 1 + o for l, n, o in zip(lo, shape, origin)))
        for lo, shape in accepted
    ]


def _signatures(sub: np.ndarray, axis: int, along: list[int]) -> list[list[int]]:
    """Tag counts per plane perpendicular to each axis of ``sub``, as
    lists, given ``along``, the signature along ``axis``."""
    plane = sub.sum(axis=axis)  # ``axis`` summed out first: a smaller array to reduce
    sigs = []
    for d in range(sub.ndim):
        if d == axis:
            sigs.append(along)
        else:
            k = d - (d > axis)
            sigs.append(plane.sum(axis=tuple(j for j in range(plane.ndim) if j != k)).tolist())
    return sigs


def _recurse(
    tags: np.ndarray,
    lo: list[int],
    sigs: list[list[int]],
    fill_ratio: float,
    max_box_size: int,
    accepted: list[tuple[list[int], list[int]]],
) -> None:
    """Cluster the tags of the region at ``lo`` whose signatures are ``sigs``.

    Every region handed here holds a tag, so every signature has a
    non-zero entry.
    """
    # Shrink to the tight bounding box: trim the zero planes off both ends
    # of every signature.  A plane without tags adds nothing to the other
    # axes' counts, so the trimmed signatures stay exact.
    for d, sig in enumerate(sigs):
        first = next(i for i, v in enumerate(sig) if v)
        end = len(sig) - next(i for i, v in enumerate(reversed(sig)) if v)
        lo[d] += first
        sigs[d] = sig[first:end]
    shape = [len(sig) for sig in sigs]
    if sum(sigs[0]) / math.prod(shape) >= fill_ratio and max(shape) <= max_box_size:
        accepted.append((lo, shape))
        return
    axis, cut = _find_cut(sigs)
    if cut is None:
        # Cannot split (all extents are 1): accept regardless of ratio.
        accepted.append((lo, shape))
        return
    high = lo.copy()
    high[axis] += cut
    for start, along in ((lo, sigs[axis][:cut]), (high, sigs[axis][cut:])):
        extent = shape.copy()
        extent[axis] = len(along)
        sub = tags[tuple(slice(l, l + n) for l, n in zip(start, extent))]
        _recurse(tags, start.copy(), _signatures(sub, axis, along), fill_ratio, max_box_size,
                 accepted)


def _find_cut(sigs: list[list[int]]) -> tuple[int, int | None]:
    """Choose a cut plane: holes first, then inflections, then midpoint.

    ``sigs`` are the signatures of a tight region.  Returns ``(axis,
    cut)`` with the cut strictly inside the region, relative to its low
    corner; ``(0, None)`` when no axis can be split.
    """
    shape = [len(sig) for sig in sigs]
    # Prefer splitting the longest axis when quality ties.
    splittable = sorted((d for d in range(len(sigs)) if shape[d] >= 2), key=lambda d: -shape[d])
    if not splittable:
        return 0, None

    # 1. Look for holes in the signature (Berger-Rigoutsos "Phi = 0").  A
    # tight region's end planes hold tags, so every hole is interior.
    for axis in splittable:
        zeros = [i for i, count in enumerate(sigs[axis]) if count == 0]
        if zeros:
            # Cut after the hole nearest the centre for balanced halves.
            centre = (shape[axis] - 1) / 2
            return axis, min(zeros, key=lambda i: abs(i - centre)) + 1

    # 2. Strongest inflection in the Laplacian of the signature.
    best: tuple[int, int, int] | None = None
    for axis in splittable:
        sig = sigs[axis]
        if len(sig) < 4:
            continue
        lap = [a - 2 * b + c for a, b, c in zip(sig, sig[1:], sig[2:])]
        jump = [abs(b - a) for a, b in zip(lap, lap[1:])]
        strength = max(jump)
        if strength > 0 and (best is None or strength > best[0]):
            # Between lap[k] and lap[k+1], in cell coordinates.
            best = (strength, axis, jump.index(strength) + 2)
    if best is not None:
        return best[1], best[2]

    # 3. Fall back to the midpoint of the longest splittable axis.
    axis = splittable[0]
    return axis, shape[axis] // 2
