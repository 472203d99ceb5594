"""Tests for the error-bounded compression codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.compression import compress_field, decompress_field
from repro.errors import PolicyError


class TestRoundtrip:
    def test_error_bound_respected(self):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(16, 16, 16))
        tol = 1e-3
        recon = decompress_field(compress_field(field, tol))
        bound = tol * (field.max() - field.min())
        assert np.abs(recon - field).max() <= bound + 1e-12

    def test_constant_field_exact_and_tiny(self):
        field = np.full((8, 8), 3.25)
        comp = compress_field(field, 1e-3)
        recon = decompress_field(comp)
        np.testing.assert_array_equal(recon, field)
        assert comp.nbytes < 64

    def test_shape_preserved(self):
        field = np.arange(24.0).reshape(2, 3, 4)
        assert decompress_field(compress_field(field, 0.01)).shape == (2, 3, 4)

    def test_subnormal_span_stored_as_constant(self):
        # Regression: a span so small that step = 2*tol*span underflows
        # to exactly 0.0 used to divide by zero and NaN the codes.  The
        # field must round-trip as a constant within the usual slack.
        field = np.array([[5e-324, 0.0, 0.0, 0.0]])
        comp = compress_field(field, 1e-4)
        assert comp.step == 0.0
        recon = decompress_field(comp)
        assert recon.shape == field.shape
        assert np.isfinite(recon).all()
        span = field.max() - field.min()
        assert np.abs(recon - field).max() <= 1e-4 * span + 1e-9

    def test_wide_range_uses_uint32(self):
        # A very tight tolerance forces > 2^16 quantization codes.
        field = np.linspace(0, 1, 100_000)
        tol = 1e-6
        recon = decompress_field(compress_field(field, tol))
        assert np.abs(recon - field).max() <= tol * 1.0 + 1e-15

    def test_validation(self):
        with pytest.raises(PolicyError):
            compress_field(np.zeros(4), tolerance=0)
        with pytest.raises(PolicyError):
            compress_field(np.zeros(4), tolerance=1.0)
        with pytest.raises(PolicyError):
            compress_field(np.array([]), 0.01)
        with pytest.raises(PolicyError):
            compress_field(np.array([np.nan]), 0.01)

    @settings(deadline=None, max_examples=30)
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(2, 20), st.integers(2, 20)),
                   elements=st.floats(-1e6, 1e6)),
        st.sampled_from([1e-4, 1e-3, 1e-2]),
    )
    def test_roundtrip_bound_property(self, field, tol):
        recon = decompress_field(compress_field(field, tol))
        span = field.max() - field.min()
        assert np.abs(recon - field).max() <= tol * span + 1e-9 * max(1.0, span)


def compression_ratio(field, tolerance):
    """Original bytes / compressed bytes at the given bound."""
    compressed = compress_field(field, tolerance)
    return field.astype(np.float64).nbytes / compressed.nbytes


class TestRatios:
    def test_smooth_beats_noisy(self):
        x = np.linspace(0, 2 * np.pi, 64)
        smooth = np.sin(np.add.outer(x, x))
        noisy = np.random.default_rng(0).uniform(-1, 1, (64, 64))
        assert compression_ratio(smooth, 1e-3) > 2 * compression_ratio(noisy, 1e-3)

    def test_looser_bound_compresses_more(self):
        rng = np.random.default_rng(1)
        field = np.cumsum(rng.normal(size=4096)).reshape(64, 64)
        ratios = [compression_ratio(field, t) for t in (1e-4, 1e-3, 1e-2)]
        assert ratios == sorted(ratios)

    def test_ratio_exceeds_one_for_real_data(self):
        from repro.amr.box import Box
        from repro.amr.godunov import PolytropicGasSolver
        from repro.amr.hierarchy import AMRHierarchy
        from repro.amr.stepper import AMRStepper

        h = AMRHierarchy(Box((0, 0), (31, 31)), ncomp=4, nghost=2,
                         max_levels=1, dx0=1 / 32)
        stepper = AMRStepper(h, PolytropicGasSolver(), regrid_interval=0)
        stepper.run(5)
        rho = h.levels[0].data.to_dense(h.level_domain(0))[0]
        assert compression_ratio(rho, 1e-3) > 3.0
