"""Tests for Shannon entropy and entropy-driven down-sampling factors."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.entropy import (
    block_entropies,
    entropy_downsample_factors,
    shannon_entropy,
)
from repro.errors import PolicyError


class TestShannonEntropy:
    def test_constant_block_zero_entropy(self):
        assert shannon_entropy(np.full(100, 3.0)) == 0.0

    def test_uniform_two_values_one_bit(self):
        values = np.array([0.0, 1.0] * 50)
        assert shannon_entropy(values, bins=2) == pytest.approx(1.0)

    def test_uniform_distribution_max_entropy(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, 100_000)
        h = shannon_entropy(values, bins=256)
        assert h == pytest.approx(8.0, abs=0.05)

    def test_entropy_bounded_by_log2_bins(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=1000)
        assert 0 <= shannon_entropy(values, bins=64) <= 6.0

    def test_nan_ignored(self):
        values = np.array([1.0, np.nan, 1.0, np.nan])
        assert shannon_entropy(values) == 0.0

    def test_empty_zero(self):
        assert shannon_entropy(np.array([])) == 0.0
        assert shannon_entropy(np.array([np.nan])) == 0.0

    def test_bad_bins(self):
        with pytest.raises(PolicyError):
            shannon_entropy(np.zeros(4), bins=1)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=200))
    @example(values=[0.0, 5e-324])
    def test_nonnegative_and_bounded(self, values):
        h = shannon_entropy(np.array(values), bins=32)
        assert 0.0 <= h <= 5.0 + 1e-9

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=200))
    @example(values=[0.0, 5e-324])
    def test_matches_one_block_of_block_entropies(self, values):
        # A range too narrow for 32 distinct bin edges is binned, not
        # rejected, exactly as the blockwise path bins it.
        values = np.array(values)
        whole = block_entropies(values, values.shape, bins=32,
                                global_range=False)
        assert shannon_entropy(values, bins=32) == whole[0]

    def test_tiny_range_bins_like_blocks(self):
        values = np.array([0.0, 5e-324])
        assert shannon_entropy(values, bins=32) == 1.0
        assert shannon_entropy(values, bins=32, value_range=(0.0, 5e-324)) == 1.0

    def test_range_wider_than_float64_raises(self):
        values = np.array([-1e308, 0.0, 1e308])
        with pytest.raises(PolicyError, match="wider than float64"):
            shannon_entropy(values)
        with pytest.raises(PolicyError, match="wider than float64"):
            block_entropies(values, (3,), global_range=False)

    def test_bad_value_range(self):
        for bad in ((1.0, 0.0), (0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(PolicyError):
                shannon_entropy(np.zeros(4), value_range=bad)


class TestBlockEntropies:
    def test_blocks_shape(self):
        field = np.zeros((8, 8))
        out = block_entropies(field, (4, 4))
        assert out.shape == (2, 2)

    def test_partial_blocks_included(self):
        field = np.zeros((10, 6))
        out = block_entropies(field, (4, 4))
        assert out.shape == (3, 2)

    def test_high_vs_low_entropy_blocks(self):
        rng = np.random.default_rng(0)
        field = np.zeros((8, 8))
        field[:4, :4] = rng.uniform(0, 1, (4, 4))  # noisy block
        out = block_entropies(field, (4, 4), bins=16)
        assert out[0, 0] > out[1, 1]
        assert out[1, 1] == 0.0

    def test_rank_mismatch_rejected(self):
        with pytest.raises(PolicyError):
            block_entropies(np.zeros((4, 4)), (2,))

    def test_3d(self):
        field = np.random.default_rng(0).normal(size=(8, 8, 8))
        out = block_entropies(field, (4, 4, 4))
        assert out.shape == (2, 2, 2)
        assert (out > 0).all()


class TestEntropyFactors:
    def test_threshold_mapping(self):
        entropies = np.array([2.0, 5.0, 9.0])
        factors = entropy_downsample_factors(entropies, thresholds=[4.0, 8.0],
                                             factors=[8, 4, 1])
        np.testing.assert_array_equal(factors, [8, 4, 1])

    def test_boundary_goes_to_higher_bucket(self):
        factors = entropy_downsample_factors(np.array([4.0]), [4.0], [4, 1])
        np.testing.assert_array_equal(factors, [1])

    def test_paper_example_block_values(self):
        # Fig. 6: entropy 5.14 below threshold -> every 4th point;
        # 9.21 above -> unchanged.
        factors = entropy_downsample_factors(
            np.array([5.14, 9.21]), thresholds=[6.0], factors=[4, 1]
        )
        np.testing.assert_array_equal(factors, [4, 1])

    def test_validation(self):
        with pytest.raises(PolicyError):
            entropy_downsample_factors(np.zeros(2), [1.0], [4, 2, 1])
        with pytest.raises(PolicyError):
            entropy_downsample_factors(np.zeros(2), [2.0, 1.0], [4, 2, 1])
        with pytest.raises(PolicyError):
            entropy_downsample_factors(np.zeros(2), [1.0], [2, 4])
        with pytest.raises(PolicyError):
            entropy_downsample_factors(np.zeros(2), [1.0], [2, 0])

    @given(
        st.lists(st.floats(0, 10), min_size=1, max_size=50),
    )
    def test_monotone_in_entropy(self, entropies):
        ent = np.array(entropies)
        factors = entropy_downsample_factors(ent, [3.0, 6.0], [16, 4, 1])
        order = np.argsort(ent)
        f_sorted = factors[order]
        # Higher entropy never gets a larger factor.
        assert all(a >= b for a, b in zip(f_sorted, f_sorted[1:]))
