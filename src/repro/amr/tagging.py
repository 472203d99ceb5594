"""Cell tagging for refinement.

Chombo's applications tag cells where the *undivided difference* of a
tracked quantity exceeds a threshold; tagged
cells are then clustered into boxes by :mod:`repro.amr.clustering`.

Taggers operate on dense per-level arrays (as produced by
``LevelData.to_dense``) and return boolean masks of the same shape; the
hierarchy maps masks back to index space.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError

__all__ = ["tag_undivided_difference", "buffer_tags"]


def tag_undivided_difference(field: np.ndarray, threshold: float) -> np.ndarray:
    """Tag cells where the max one-sided undivided difference exceeds ``threshold``.

    The undivided difference along axis ``d`` at cell ``i`` is
    ``max(|u[i+1]-u[i]|, |u[i]-u[i-1]|)`` (one-sided at boundaries).  This
    is the standard Chombo refinement criterion for shock-type features.
    """
    if threshold < 0:
        raise GeometryError(f"threshold must be >= 0, got {threshold}")
    field = np.asarray(field, dtype=np.float64)
    tags = np.zeros(field.shape, dtype=bool)
    for axis in range(field.ndim):
        diff = np.abs(np.diff(field, axis=axis))
        # diff[i] = |u[i+1] - u[i]| touches cells i and i+1.
        lo_pad = [(0, 0)] * field.ndim
        lo_pad[axis] = (0, 1)
        hi_pad = [(0, 0)] * field.ndim
        hi_pad[axis] = (1, 0)
        tags |= np.pad(diff, lo_pad) > threshold
        tags |= np.pad(diff, hi_pad) > threshold
    return tags


def buffer_tags(tags: np.ndarray, buffer_cells: int) -> np.ndarray:
    """Dilate a tag mask by ``buffer_cells`` in every direction.

    Chombo buffers tags so features stay inside refined regions between
    regrids.  Implemented as a separable boolean dilation (no SciPy
    dependency on ndimage keeps this allocation-light).
    """
    if buffer_cells < 0:
        raise GeometryError(f"buffer_cells must be >= 0, got {buffer_cells}")
    out = tags.astype(bool).copy()
    for _ in range(buffer_cells):
        grown = out.copy()
        for axis in range(out.ndim):
            shifted = np.zeros_like(out)
            src = [slice(None)] * out.ndim
            dst = [slice(None)] * out.ndim
            src[axis] = slice(1, None)
            dst[axis] = slice(None, -1)
            shifted[tuple(dst)] = out[tuple(src)]
            grown |= shifted
            shifted = np.zeros_like(out)
            src[axis] = slice(None, -1)
            dst[axis] = slice(1, None)
            shifted[tuple(dst)] = out[tuple(src)]
            grown |= shifted
        out = grown
    return out
