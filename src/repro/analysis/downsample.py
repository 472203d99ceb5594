"""Spatial down-sampling operators and their memory-cost model.

These are the actuators of the application-layer adaptation (paper
Section 4.1): the policy picks a factor ``X`` and the simulation reduces
its output with ``downsample_stride`` (sample every X-th point, the
paper's "down-sampled at every 4th grid point").

``downsample_memory_cost`` is the paper's ``Mem_data_reduce(S_data, X)``:
performing the reduction needs the input buffer plus the reduced output
buffer resident simultaneously.
"""

from __future__ import annotations

import numpy as np

from repro.analysis._blocks import (
    block_counts,
    block_slice,
    validate_block_shape,
)
from repro.errors import PolicyError

__all__ = [
    "blockwise_stride_reconstruction",
    "downsample_memory_cost",
    "downsample_stride",
    "reduced_nbytes",
    "upsample_nearest",
]


def _check_factor(factor: int) -> None:
    if factor < 1:
        raise PolicyError(f"downsampling factor must be >= 1, got {factor}")


def downsample_stride(field: np.ndarray, factor: int) -> np.ndarray:
    """Keep every ``factor``-th sample along every axis (paper's method).

    Works for any dimensionality; a factor of 1 returns the input
    unchanged (same object: no copy is made for the identity case).
    """
    _check_factor(factor)
    if factor == 1:
        return field
    return field[tuple(slice(None, None, factor) for _ in range(field.ndim))]


def upsample_nearest(field: np.ndarray, factor: int,
                     target_shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Invert a stride/mean downsample by nearest-neighbour replication.

    Used by the fidelity metrics to reconstruct a full-resolution proxy.
    ``target_shape`` crops/pads (edge-replicates) to the original shape.
    """
    _check_factor(factor)
    out = field
    for axis in range(field.ndim):
        out = np.repeat(out, factor, axis=axis)
    if target_shape is not None:
        if len(target_shape) != out.ndim:
            raise PolicyError("target_shape rank mismatch")
        pads = []
        slices = []
        for have, want in zip(out.shape, target_shape):
            pads.append((0, max(0, want - have)))
            slices.append(slice(0, want))
        out = np.pad(out, pads, mode="edge")[tuple(slices)]
    return out


def blockwise_stride_reconstruction(
    field: np.ndarray,
    block_shape: tuple[int, ...],
    factor: int,
    block_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Per-block ``downsample_stride`` -> ``upsample_nearest`` round trip.

    Equivalent to reconstructing every block of ``field`` independently
    (reduce by ``factor``, replicate back to the block's shape) but done
    as a single gather: the cell at offset ``l`` within its block reads
    the block's cell at ``(l // factor) * factor`` along every axis, so
    the whole reconstruction is one fancy-indexing expression producing
    exact element copies.  With ``block_mask`` (one bool per block, shape
    ``ceil(field.shape / block_shape)``), unmasked blocks keep their
    original values.  Bit-identical to
    :func:`_reference_blockwise_stride_reconstruction`.
    """
    _check_factor(factor)
    field = np.asarray(field)
    validate_block_shape(field, block_shape)
    src_axes = [
        (np.arange(s, dtype=np.intp) // b) * b
        + ((np.arange(s, dtype=np.intp) % b) // factor) * factor
        for s, b in zip(field.shape, block_shape)
    ]
    recon = field[np.ix_(*src_axes)]
    if block_mask is None:
        return recon
    counts = block_counts(field.shape, block_shape)
    block_mask = np.asarray(block_mask, dtype=bool)
    if block_mask.shape != counts:
        raise PolicyError(
            f"block_mask shape {block_mask.shape} != block grid {counts}"
        )
    id_axes = [
        np.arange(s, dtype=np.intp) // b for s, b in zip(field.shape, block_shape)
    ]
    cell_mask = block_mask[np.ix_(*id_axes)]
    return np.where(cell_mask, recon, field)


def _reference_blockwise_stride_reconstruction(
    field: np.ndarray,
    block_shape: tuple[int, ...],
    factor: int,
    block_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Scalar oracle: reduce and re-expand one block at a time."""
    _check_factor(factor)
    field = np.asarray(field)
    validate_block_shape(field, block_shape)
    out = field.copy()
    counts = block_counts(field.shape, block_shape)
    for idx in np.ndindex(*counts):
        if block_mask is not None and not block_mask[idx]:
            continue
        slc = block_slice(idx, field.shape, block_shape)
        block = field[slc]
        reduced = downsample_stride(block, factor)
        out[slc] = upsample_nearest(reduced, factor, target_shape=block.shape)
    return out


def reduced_nbytes(nbytes: float, factor: int, ndim: int) -> float:
    """Size of data after down-sampling by ``factor`` in ``ndim`` dimensions."""
    _check_factor(factor)
    if ndim < 1:
        raise PolicyError(f"ndim must be >= 1, got {ndim}")
    return float(nbytes) / float(factor**ndim)


# The reduced copy plus the analysis working buffer built from it.
_REDUCE_BUFFERS = 2.0


def downsample_memory_cost(nbytes: float, factor: int, ndim: int) -> float:
    """``Mem_data_reduce(S_data, X)``: *additional* bytes the reduction needs.

    The raw data is already resident as simulation state, so the extra
    footprint is the reduced output copy plus the analysis working buffer
    derived from it: ``2 * S_data / X^ndim``.  This is what makes the
    paper's Figure 5 curves differ by an order of magnitude between the
    minimum and maximum spatial resolutions.
    """
    return _REDUCE_BUFFERS * reduced_nbytes(nbytes, factor, ndim)
