"""Coarse-fine interlevel operators on dense arrays.

- :func:`restrict` conservatively averages ``ratio**ndim`` fine cells into
  each coarse cell.
- :func:`prolong` interpolates coarse data onto a refined grid, either
  piecewise-constant (order 0) or with limited linear slopes (order 1,
  conservative per coarse cell: the average of the fine values it produces
  equals the coarse value).

Arrays carry a leading component axis: shape ``(ncomp, *spatial)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError

__all__ = ["prolong", "restrict"]


def restrict(fine: np.ndarray, ratio: int) -> np.ndarray:
    """Average ``ratio``-blocks of fine cells down to coarse cells.

    ``fine`` has shape ``(ncomp, *spatial)`` with every spatial extent a
    multiple of ``ratio``.
    """
    if ratio < 1:
        raise GeometryError(f"ratio must be >= 1, got {ratio}")
    fine = np.asarray(fine)
    spatial = fine.shape[1:]
    if any(s % ratio for s in spatial):
        raise GeometryError(f"fine shape {spatial} not divisible by ratio {ratio}")
    out = fine
    # Reshape trick: split each spatial axis into (coarse, ratio) and mean
    # over the ratio sub-axes.
    new_shape = [fine.shape[0]]
    for s in spatial:
        new_shape.extend([s // ratio, ratio])
    reshaped = fine.reshape(new_shape)
    mean_axes = tuple(2 + 2 * d for d in range(len(spatial)))
    out = reshaped.mean(axis=mean_axes)
    return out


def prolong(coarse: np.ndarray, ratio: int, order: int = 1) -> np.ndarray:
    """Interpolate coarse data onto a grid refined by ``ratio``.

    ``order=0`` is piecewise-constant injection.  ``order=1`` adds
    van-Leer-limited central slopes per direction; the interpolation is
    conservative (fine averages reproduce the coarse values) because the
    per-cell offsets are symmetric around zero.
    """
    if ratio < 1:
        raise GeometryError(f"ratio must be >= 1, got {ratio}")
    if order not in (0, 1):
        raise GeometryError(f"order must be 0 or 1, got {order}")
    coarse = np.asarray(coarse, dtype=np.float64)
    ndim = coarse.ndim - 1
    out = coarse
    for axis in range(1, ndim + 1):
        out = np.repeat(out, ratio, axis=axis)
    if order == 0 or ratio == 1:
        return out

    # Fractional offsets of fine-cell centres within a coarse cell,
    # in units of the coarse spacing: (k + 0.5)/ratio - 0.5.
    offsets = (np.arange(ratio) + 0.5) / ratio - 0.5
    for axis in range(1, ndim + 1):
        slope = _limited_slope(coarse, axis)
        slope_rep = slope
        for a in range(1, ndim + 1):
            slope_rep = np.repeat(slope_rep, ratio, axis=a)
        # Tile the per-fine-cell offset along this axis.
        shape = [1] * out.ndim
        shape[axis] = out.shape[axis]
        tiled = np.tile(offsets, out.shape[axis] // ratio).reshape(shape)
        out = out + slope_rep * tiled
    return out


def _limited_slope(coarse: np.ndarray, axis: int) -> np.ndarray:
    """Van-Leer-limited central slope along ``axis`` (one-sided at edges)."""
    fwd = np.zeros_like(coarse)
    bwd = np.zeros_like(coarse)
    n = coarse.shape[axis]
    if n == 1:
        return np.zeros_like(coarse)

    def sl(a, b):
        idx = [slice(None)] * coarse.ndim
        idx[axis] = slice(a, b)
        return tuple(idx)

    diff = np.diff(coarse, axis=axis)
    fwd[sl(0, n - 1)] = diff
    fwd[sl(n - 1, n)] = diff[sl(n - 2, n - 1)]
    bwd[sl(1, n)] = diff
    bwd[sl(0, 1)] = diff[sl(0, 1)]

    central = 0.5 * (fwd + bwd)
    # Van Leer: zero at extrema, else min(|central|, 2|fwd|, 2|bwd|) w/ sign.
    same_sign = (fwd * bwd) > 0
    mag = np.minimum(np.abs(central), 2 * np.minimum(np.abs(fwd), np.abs(bwd)))
    return np.where(same_sign, np.sign(central) * mag, 0.0)


def _zero_unless(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.where(mask, values, 0.0)`` bit for bit, in place and cheaper:
    clearing every bit of a float64 leaves +0.0."""
    bits = values.view(np.int64)
    np.bitwise_and(bits, -mask.astype(np.int64), out=bits)
    return values
