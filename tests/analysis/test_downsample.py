"""Tests for down-sampling operators and their memory model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.downsample import (
    downsample_memory_cost,
    downsample_stride,
    reduced_nbytes,
    upsample_nearest,
)
from repro.errors import PolicyError


class TestStride:
    def test_factor_one_is_identity(self):
        a = np.arange(8.0)
        assert downsample_stride(a, 1) is a

    def test_every_other_sample(self):
        a = np.arange(8.0)
        np.testing.assert_array_equal(downsample_stride(a, 2), [0, 2, 4, 6])

    def test_3d_shape(self):
        a = np.zeros((8, 8, 8))
        assert downsample_stride(a, 4).shape == (2, 2, 2)

    def test_nondivisible_shape(self):
        a = np.arange(7.0)
        np.testing.assert_array_equal(downsample_stride(a, 2), [0, 2, 4, 6])

    def test_bad_factor(self):
        with pytest.raises(PolicyError):
            downsample_stride(np.zeros(4), 0)


class TestUpsample:
    def test_roundtrip_shape(self):
        a = np.random.default_rng(0).normal(size=(9, 9))
        up = upsample_nearest(downsample_stride(a, 2), 2, target_shape=a.shape)
        assert up.shape == a.shape

    def test_nearest_replication(self):
        a = np.array([1.0, 2.0])
        np.testing.assert_array_equal(upsample_nearest(a, 3), [1, 1, 1, 2, 2, 2])

    def test_target_shape_rank_checked(self):
        with pytest.raises(PolicyError):
            upsample_nearest(np.zeros((2, 2)), 2, target_shape=(4,))

    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(4, 16), st.integers(4, 16)),
                   elements=st.floats(-10, 10)),
        st.integers(1, 4),
    )
    def test_constant_blocks_lossless(self, a, factor):
        # For factor 1 reconstruction is always exact.
        up = upsample_nearest(downsample_stride(a, 1), 1, target_shape=a.shape)
        np.testing.assert_array_equal(up, a)
        # Stride+nearest reconstructs exactly at sampled points.
        red = downsample_stride(a, factor)
        up = upsample_nearest(red, factor, target_shape=a.shape)
        np.testing.assert_array_equal(
            up[::factor, ::factor], a[::factor, ::factor]
        )


class TestCostModel:
    def test_reduced_nbytes_scales_with_dim(self):
        assert reduced_nbytes(1024, 2, 3) == 128
        assert reduced_nbytes(1024, 2, 2) == 256
        assert reduced_nbytes(1024, 1, 3) == 1024

    def test_memory_cost_is_two_reduced_buffers(self):
        # Reduced copy + analysis working buffer; the raw data is already
        # resident simulation state.
        assert downsample_memory_cost(1000, 2, 3) == pytest.approx(250.0)
        assert downsample_memory_cost(1000, 1, 3) == pytest.approx(2000.0)

    def test_memory_cost_monotone_decreasing_in_factor(self):
        costs = [downsample_memory_cost(1e6, x, 3) for x in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_invalid_args(self):
        with pytest.raises(PolicyError):
            reduced_nbytes(100, 0, 3)
        with pytest.raises(PolicyError):
            reduced_nbytes(100, 2, 0)
