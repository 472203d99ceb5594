"""Equivalence tests: vectorized blockwise kernels vs their scalar oracles.

Every vectorized kernel in :mod:`repro.analysis` keeps its original
per-block implementation as a ``_reference_*`` oracle; these tests assert
*exact* (bit-for-bit) agreement -- including partial trailing blocks,
NaNs, constant blocks, per-block histogram ranges and every supported
rank -- so the vectorization can never drift from the defined semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis._blocks import blockwise_histogram
from repro.analysis.downsample import (
    _reference_blockwise_stride_reconstruction,
    blockwise_stride_reconstruction,
)
from repro.analysis.entropy import _reference_block_entropies, block_entropies
from repro.analysis.fidelity import (
    _reference_blockwise_reconstruction_errors,
    blockwise_reconstruction_errors,
)
from repro.errors import PolicyError

#: (field shape, block shape) cases: aligned, partial-trailing, 1-D/2-D,
#: block == field, block larger than field.
CASES = [
    ((24, 24, 24), (8, 8, 8)),
    ((23, 21, 11), (8, 8, 8)),
    ((9, 9, 9), (4, 4, 4)),
    ((30,), (7,)),
    ((13, 29), (5, 8)),
    ((16, 16), (16, 16)),
    ((5, 6), (8, 8)),
]


def _field(shape, kind, rng):
    base = rng.standard_normal(shape) * 17.3 + 2.0
    if kind == "nan":
        flat = base.copy()
        flat.ravel()[rng.integers(0, base.size, max(1, base.size // 8))] = np.nan
        return flat
    if kind == "constant":
        return np.full(shape, 3.25)
    if kind == "constant_block":
        mixed = base.copy()
        mixed[tuple(slice(0, min(4, s)) for s in shape)] = 7.5
        return mixed
    if kind == "all_nan":
        return np.full(shape, np.nan)
    return base


class TestBlockwiseHistogram:
    # The oracle of every histogram in repro.analysis, the scalar
    # shannon_entropy's included: np.histogram itself, on ranges wide
    # enough for np.histogram to accept.
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 64))
    def test_rows_match_np_histogram(self, seed, nblocks, bins):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-50.0, 50.0, nblocks)
        hi = lo + rng.uniform(1e-6, 100.0, nblocks)
        bids = rng.integers(0, nblocks, 300)
        values = rng.uniform(lo[bids] - 5.0, hi[bids] + 5.0)  # some outside
        # Samples on every bin edge of every block, ends included, and
        # one ulp either side of each.
        edges = np.array([np.linspace(lo[k], hi[k], bins + 1)
                          for k in range(nblocks)]).ravel()
        near = [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        values = np.concatenate([values, *near])
        edge_bids = np.repeat(np.arange(nblocks), bins + 1)
        bids = np.concatenate([bids, edge_bids, edge_bids, edge_bids])
        got = blockwise_histogram(values, bids, nblocks, bins, lo, hi)
        for k in range(nblocks):
            want, _ = np.histogram(values[bids == k], bins, range=(lo[k], hi[k]))
            assert np.array_equal(got[k], want)


class TestBlockEntropies:
    @pytest.mark.parametrize("shape,block", CASES)
    @pytest.mark.parametrize("kind", ["random", "nan", "constant",
                                      "constant_block", "all_nan"])
    @pytest.mark.parametrize("global_range", [True, False])
    def test_matches_reference_exactly(self, shape, block, kind, global_range):
        field = _field(shape, kind, np.random.default_rng(0))
        got = block_entropies(field, block, bins=64, global_range=global_range)
        want = _reference_block_entropies(field, block, bins=64,
                                          global_range=global_range)
        assert np.array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(5, 40), st.integers(1, 9), st.integers(2, 32),
           st.booleans())
    def test_property_1d(self, n, b, bins, global_range):
        field = np.random.default_rng(n * 31 + b).standard_normal(n)
        got = block_entropies(field, (b,), bins=bins, global_range=global_range)
        want = _reference_block_entropies(field, (b,), bins=bins,
                                          global_range=global_range)
        assert np.array_equal(got, want)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(PolicyError):
            block_entropies(np.zeros((4, 4)), (2,))

    def test_bad_bins_rejected(self):
        with pytest.raises(PolicyError):
            block_entropies(np.zeros((4, 4)), (2, 2), bins=1)


class TestBlockwiseStrideReconstruction:
    @pytest.mark.parametrize("shape,block", CASES)
    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_matches_reference_exactly(self, shape, block, factor):
        rng = np.random.default_rng(1)
        field = rng.standard_normal(shape)
        counts = tuple(-(-s // b) for s, b in zip(shape, block))
        for mask in (None, rng.random(counts) < 0.5):
            got = blockwise_stride_reconstruction(field, block, factor, mask)
            want = _reference_blockwise_stride_reconstruction(
                field, block, factor, mask
            )
            assert np.array_equal(got, want)

    def test_unmasked_blocks_untouched(self):
        field = np.random.default_rng(2).standard_normal((16, 16))
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        out = blockwise_stride_reconstruction(field, (8, 8), 4, mask)
        assert np.array_equal(out[8:, :], field[8:, :])
        assert np.array_equal(out[:8, 8:], field[:8, 8:])
        assert not np.array_equal(out[:8, :8], field[:8, :8])

    def test_mask_shape_rejected(self):
        with pytest.raises(PolicyError):
            blockwise_stride_reconstruction(
                np.zeros((8, 8)), (4, 4), 2, np.ones((3, 3), dtype=bool)
            )

    def test_bad_factor_rejected(self):
        with pytest.raises(PolicyError):
            blockwise_stride_reconstruction(np.zeros((8, 8)), (4, 4), 0)


class TestBlockwiseReconstructionErrors:
    @pytest.mark.parametrize("shape,block", CASES)
    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_matches_reference_exactly(self, shape, block, factor):
        field = np.random.default_rng(3).standard_normal(shape) * 5.0
        got = blockwise_reconstruction_errors(field, block, factor)
        want = _reference_blockwise_reconstruction_errors(field, block, factor)
        assert np.array_equal(got, want)

    def test_constant_blocks_zero_error(self):
        field = np.full((16, 16), 2.5)
        got = blockwise_reconstruction_errors(field, (8, 8), 4)
        assert np.array_equal(got, np.zeros((2, 2)))

    def test_nonfinite_rejected(self):
        field = np.ones((8, 8))
        field[0, 0] = np.nan
        with pytest.raises(PolicyError):
            blockwise_reconstruction_errors(field, (4, 4), 2)
