"""Shannon entropy of data blocks (paper Eq. 11) and entropy-driven reduction.

The paper's automatic application-layer adaptation computes, for every
data block of the AMR dataset, the entropy

    H(X) = - sum_x p(x) log2 p(x)

of a histogram of the block's values, and down-samples blocks whose
entropy falls below user-specified thresholds ("the right region has its
entropy value (at 5.14) lower than the specified threshold and thus is
down-sampled at every 4th grid point").
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.analysis._blocks import (
    block_counts,
    block_ids,
    blockwise_histogram,
    validate_block_shape,
)
from repro.errors import PolicyError

__all__ = ["block_entropies", "entropy_downsample_factors", "shannon_entropy"]


def shannon_entropy(values: np.ndarray, bins: int = 256,
                    value_range: tuple[float, float] | None = None) -> float:
    """Histogram Shannon entropy of ``values`` in bits.

    NaNs are ignored.  A constant (or empty) block has zero entropy.  The
    maximum possible value is ``log2(bins)`` (8 bits for 256 bins).

    The histogram is ``np.histogram``'s (range defaulting to the finite
    min/max, a constant range widened by 0.5 each way), computed as the
    one-block case of :func:`block_entropies`, so a range too narrow for
    ``bins`` distinct edges is binned as that path bins it instead of
    raising.
    """
    if bins < 2:
        raise PolicyError(f"bins must be >= 2, got {bins}")
    flat = np.asarray(values, dtype=np.float64).ravel()
    flat = flat[np.isfinite(flat)]
    if flat.size == 0:
        return 0.0
    if value_range is None:
        lo, hi = float(flat.min()), float(flat.max())
    else:
        lo, hi = float(value_range[0]), float(value_range[1])
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise PolicyError(
                f"value_range must be finite with lo <= hi, got {value_range}"
            )
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts = blockwise_histogram(
        flat, np.zeros(flat.size, dtype=np.intp), 1, bins,
        np.array([lo]), np.array([hi]),
    )[0]
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    # max() guards against -0.0 for single-bin (constant) blocks.
    return max(0.0, float(-(p * np.log2(p)).sum()))


def block_entropies(
    field: np.ndarray,
    block_shape: tuple[int, ...],
    bins: int = 256,
    global_range: bool = True,
) -> np.ndarray:
    """Entropy of each non-overlapping block of ``field``.

    Returns an array with one entry per block (shape =
    ``ceil(field.shape / block_shape)``); trailing partial blocks are
    included.  With ``global_range`` the histogram range is shared across
    blocks so entropies are comparable (the paper compares block
    entropies against common thresholds).

    Single-pass vectorized implementation: the whole field is routed to
    per-block histogram bins at once (``bincount`` over
    ``block_id * bins + bin``); only the O(blocks * bins) entropy
    reduction runs per block.  Bit-identical to
    :func:`_reference_block_entropies`, the per-block scalar oracle.
    """
    field = np.asarray(field)
    validate_block_shape(field, block_shape)
    if bins < 2:
        raise PolicyError(f"bins must be >= 2, got {bins}")
    counts_shape = block_counts(field.shape, block_shape)
    nblocks = int(np.prod(counts_shape)) if counts_shape else 1
    out = np.zeros(counts_shape, dtype=np.float64)
    if field.size == 0 or nblocks == 0:
        return out
    flat = np.asarray(field, dtype=np.float64).ravel()
    bids = block_ids(field.shape, block_shape).ravel()
    finite = np.isfinite(flat)
    values = flat[finite]
    vbids = bids[finite]

    if global_range:
        if values.size == 0:
            return out
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:
            hi = lo + 1.0
        lo_b = np.full(nblocks, lo)
        hi_b = np.full(nblocks, hi)
    else:
        # Per-block auto ranges, as np.histogram derives them: the finite
        # min/max, with a constant block widened to (v - 0.5, v + 0.5).
        lo_b = np.full(nblocks, np.inf)
        hi_b = np.full(nblocks, -np.inf)
        np.minimum.at(lo_b, vbids, values)
        np.maximum.at(hi_b, vbids, values)
        empty = ~np.isfinite(lo_b)
        constant = (lo_b == hi_b) & ~empty
        lo_b[constant] -= 0.5
        hi_b[constant] += 0.5
        lo_b[empty] = 0.0
        hi_b[empty] = 1.0  # placeholder; empty blocks contribute no samples

    hist = blockwise_histogram(values, vbids, nblocks, bins, lo_b, hi_b)
    totals = hist.sum(axis=1)
    flat_out = out.reshape(-1)
    # Per-block entropy from the count matrix: O(blocks * bins) work and
    # the same compaction + summation as the scalar oracle, so the result
    # matches bit for bit.
    for k in np.nonzero(totals)[0]:
        c = hist[k]
        c = c[c > 0]
        p = c / totals[k]
        flat_out[k] = max(0.0, float(-(p * np.log2(p)).sum()))
    return out


def _reference_block_entropies(
    field: np.ndarray,
    block_shape: tuple[int, ...],
    bins: int = 256,
    global_range: bool = True,
) -> np.ndarray:
    """Scalar oracle: one :func:`shannon_entropy` call per block.

    The pre-vectorization implementation, kept as the equivalence oracle
    for :func:`block_entropies` (the property tests assert exact
    agreement).  Both bin through :func:`blockwise_histogram`, which the
    tests check against ``np.histogram`` directly.
    """
    if len(block_shape) != field.ndim:
        raise PolicyError(
            f"block_shape rank {len(block_shape)} != field rank {field.ndim}"
        )
    if any(b < 1 for b in block_shape):
        raise PolicyError(f"block_shape entries must be >= 1: {block_shape}")
    finite = field[np.isfinite(field)]
    value_range = None
    if global_range and finite.size:
        lo, hi = float(finite.min()), float(finite.max())
        if lo == hi:
            hi = lo + 1.0
        value_range = (lo, hi)
    counts = tuple(-(-s // b) for s, b in zip(field.shape, block_shape))
    out = np.zeros(counts, dtype=np.float64)
    for idx in np.ndindex(*counts):
        slc = tuple(
            slice(i * b, min((i + 1) * b, s))
            for i, b, s in zip(idx, block_shape, field.shape)
        )
        out[idx] = shannon_entropy(field[slc], bins=bins, value_range=value_range)
    return out


def entropy_downsample_factors(
    entropies: np.ndarray,
    thresholds: Sequence[float],
    factors: Sequence[int],
) -> np.ndarray:
    """Map block entropies to per-block down-sampling factors.

    ``thresholds`` must be increasing; ``factors`` has one more entry than
    ``thresholds`` and must be decreasing (low entropy -> aggressive
    reduction).  A block with entropy below ``thresholds[0]`` gets
    ``factors[0]``; above ``thresholds[-1]`` it gets ``factors[-1]``
    (typically 1, i.e. full resolution).
    """
    thresholds = list(thresholds)
    factors = list(factors)
    if len(factors) != len(thresholds) + 1:
        raise PolicyError(
            f"need len(factors) == len(thresholds) + 1, got "
            f"{len(factors)} and {len(thresholds)}"
        )
    if any(t1 >= t2 for t1, t2 in zip(thresholds, thresholds[1:])):
        raise PolicyError(f"thresholds must be strictly increasing: {thresholds}")
    if any(f < 1 for f in factors):
        raise PolicyError(f"factors must be >= 1: {factors}")
    if any(f1 < f2 for f1, f2 in zip(factors, factors[1:])):
        raise PolicyError(f"factors must be non-increasing: {factors}")
    indices = np.searchsorted(np.asarray(thresholds), entropies, side="right")
    return np.asarray(factors)[indices]
