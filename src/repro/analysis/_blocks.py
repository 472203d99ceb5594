"""Shared machinery for block-decomposed analysis kernels.

The paper's application-layer adaptation operates on non-overlapping
blocks of the AMR dataset (entropy, per-block reduction, per-block
statistics).  The vectorized kernels in :mod:`repro.analysis` all need
the same three ingredients, collected here:

- the block grid (:func:`block_counts`) and per-cell block ids
  (:func:`block_ids`), so one pass over the field can route every cell
  to its block with ``bincount``;
- an exact replica of NumPy's uniform-bin histogram indexing
  (:func:`blockwise_histogram`), so per-block histograms computed in a
  single pass match ``np.histogram`` bit for bit -- the index estimate
  is corrected against the actual bin edges, exactly as NumPy does;
- the aligned-interior/partial-edge split (:func:`full_block_counts`,
  :func:`block_rows`, :func:`iter_edge_blocks`): fully populated blocks
  are reshaped into contiguous rows whose NumPy reductions traverse the
  same element order (and therefore the same pairwise-summation tree) as
  a per-block loop, while trailing partial blocks take a scalar edge
  path.  This is what lets the vectorized kernels agree *exactly* with
  their ``_reference_*`` oracles instead of merely to rounding error.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import PolicyError

__all__ = [
    "block_counts",
    "block_ids",
    "block_rows",
    "block_slice",
    "blockwise_histogram",
    "full_block_counts",
    "iter_edge_blocks",
    "linspace_rows",
    "validate_block_shape",
]


def validate_block_shape(field: np.ndarray, block_shape: tuple[int, ...]) -> None:
    """The shared argument checks of every blockwise kernel."""
    if len(block_shape) != field.ndim:
        raise PolicyError(
            f"block_shape rank {len(block_shape)} != field rank {field.ndim}"
        )
    if any(b < 1 for b in block_shape):
        raise PolicyError(f"block_shape entries must be >= 1: {block_shape}")


def block_counts(shape: tuple[int, ...], block_shape: tuple[int, ...]
                 ) -> tuple[int, ...]:
    """Blocks per axis, counting trailing partial blocks."""
    return tuple(-(-s // b) for s, b in zip(shape, block_shape))


def full_block_counts(shape: tuple[int, ...], block_shape: tuple[int, ...]
                      ) -> tuple[int, ...]:
    """Fully populated blocks per axis (the aligned interior)."""
    return tuple(s // b for s, b in zip(shape, block_shape))


def block_ids(shape: tuple[int, ...], block_shape: tuple[int, ...]) -> np.ndarray:
    """Per-cell flat block index (C order over the block grid)."""
    counts = block_counts(shape, block_shape)
    strides = [1] * len(counts)
    for d in range(len(counts) - 2, -1, -1):
        strides[d] = strides[d + 1] * counts[d + 1]
    out = np.zeros(shape, dtype=np.intp)
    for d, (s, b) in enumerate(zip(shape, block_shape)):
        axis_ids = (np.arange(s, dtype=np.intp) // b) * strides[d]
        reshape = [1] * len(shape)
        reshape[d] = s
        out += axis_ids.reshape(reshape)
    return out


def block_slice(idx: tuple[int, ...], shape: tuple[int, ...],
                block_shape: tuple[int, ...]) -> tuple[slice, ...]:
    """The field slice of block ``idx`` (clipped at the field boundary)."""
    return tuple(
        slice(i * b, min((i + 1) * b, s))
        for i, b, s in zip(idx, block_shape, shape)
    )


def iter_edge_blocks(shape: tuple[int, ...], block_shape: tuple[int, ...]
                     ) -> Iterator[tuple[tuple[int, ...], tuple[slice, ...]]]:
    """Blocks with a trailing partial extent along at least one axis."""
    counts = block_counts(shape, block_shape)
    full = full_block_counts(shape, block_shape)
    for idx in np.ndindex(*counts):
        if all(i < f for i, f in zip(idx, full)):
            continue
        yield idx, block_slice(idx, shape, block_shape)


def block_rows(arr: np.ndarray, block_shape: tuple[int, ...]) -> np.ndarray:
    """Rearrange an aligned array into one contiguous row per block.

    ``arr``'s extents must be multiples of ``block_shape``.  Row ``k``
    holds block ``k`` (C order over the block grid) in the block's own C
    order, so reductions over ``axis=1`` see the same element sequence --
    and hence the same pairwise-summation grouping -- as the same
    reduction over the block extracted by slicing.
    """
    ndim = arr.ndim
    nblocks = []
    shape = []
    for s, b in zip(arr.shape, block_shape):
        nblocks.append(s // b)
        shape.extend([s // b, b])
    order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
    rows = arr.reshape(shape).transpose(order)
    return rows.reshape(int(np.prod(nblocks)) if nblocks else 1, -1)


def linspace_rows(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """Row ``k`` equals ``np.linspace(lo[k], hi[k], num)`` bit for bit.

    Replicates linspace's arithmetic (``arange * step + start``, endpoint
    overwritten with ``stop``) so histogram edge comparisons against
    these rows match ``np.histogram``'s own edges.
    """
    step = (hi - lo) / (num - 1)
    rows = np.arange(num, dtype=np.float64)[None, :] * step[:, None] + lo[:, None]
    rows[:, -1] = hi
    return rows


def blockwise_histogram(
    values: np.ndarray,
    bids: np.ndarray,
    nblocks: int,
    bins: int,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Per-block uniform-bin histograms, exactly as ``np.histogram``.

    ``values``/``bids`` are the (finite) samples and their flat block
    ids; ``lo``/``hi`` give each block's histogram range (out-of-range
    samples are dropped, the rightmost bin is closed).  Returns an
    ``(nblocks, bins)`` count matrix equal, row by row, to
    ``np.histogram(block_values, bins, range=(lo[k], hi[k]))[0]``.

    The bin index is estimated with NumPy's own scaling expression and
    then corrected against the actual edge values, so the result is
    determined by the edge predicates alone -- identical to NumPy's
    uniform-bin fast path.  A range wider than a float64 can hold
    raises :class:`PolicyError`.
    """
    with np.errstate(over="ignore"):
        denom = hi - lo
    if not np.isfinite(denom).all():
        raise PolicyError("histogram range wider than float64 can hold")
    keep = (values >= lo[bids]) & (values <= hi[bids])
    kv = values[keep]
    kb = bids[keep]
    f_idx = ((kv - lo[kb]) / denom[kb]) * bins
    idx = f_idx.astype(np.intp)
    idx[idx == bins] -= 1
    edges = linspace_rows(lo, hi, bins + 1)
    idx[kv < edges[kb, idx]] -= 1
    increment = (kv >= edges[kb, idx + 1]) & (idx != bins - 1)
    idx[increment] += 1
    flat = np.bincount(kb * bins + idx, minlength=nblocks * bins)
    return flat.reshape(nblocks, bins)
