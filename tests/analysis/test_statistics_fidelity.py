"""Tests for descriptive statistics and fidelity metrics."""

import numpy as np
import pytest

from repro.analysis.fidelity import isosurface_fidelity, reconstruction_error
from repro.analysis.statistics import descriptive_statistics
from repro.errors import PolicyError


class TestDescriptiveStatistics:
    def test_basic_moments(self):
        stats = descriptive_statistics(np.array([1.0, 2.0, 3.0, 4.0]))
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.variance == pytest.approx(1.25)
        assert stats.minimum == 1.0 and stats.maximum == 4.0

    def test_histogram_sums_to_count(self):
        field = np.random.default_rng(0).normal(size=1000)
        stats = descriptive_statistics(field, bins=32)
        assert stats.histogram.sum() == 1000

    def test_nan_excluded(self):
        stats = descriptive_statistics(np.array([1.0, np.nan, 3.0]))
        assert stats.count == 2
        assert stats.mean == pytest.approx(2.0)

    def test_empty_field(self):
        stats = descriptive_statistics(np.array([np.nan]))
        assert stats.count == 0
        assert stats.std == 0.0

    def test_bad_bins(self):
        with pytest.raises(PolicyError):
            descriptive_statistics(np.zeros(4), bins=0)


class TestReconstructionError:
    def test_constant_field_lossless(self):
        assert reconstruction_error(np.full((8, 8), 2.5), 4) == 0.0

    def test_factor_one_lossless(self):
        field = np.random.default_rng(0).normal(size=(8, 8))
        assert reconstruction_error(field, 1) == 0.0

    def test_error_grows_with_factor(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 4 * np.pi, 64)
        field = np.sin(np.add.outer(x, x)) + 0.1 * rng.normal(size=(64, 64))
        errs = [reconstruction_error(field, f) for f in (1, 2, 4, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_low_entropy_block_lower_error(self):
        # The paper's claim: smooth/low-information regions lose little.
        rng = np.random.default_rng(0)
        smooth = np.ones((32, 32)) + 1e-3 * np.linspace(0, 1, 32)[:, None]
        noisy = rng.uniform(0, 1, (32, 32))
        assert reconstruction_error(smooth, 4) < reconstruction_error(noisy, 4)

    def test_nan_rejected(self):
        field = np.ones((4, 4))
        field[0, 0] = np.nan
        with pytest.raises(PolicyError):
            reconstruction_error(field, 2)


class TestIsosurfaceFidelity:
    def _sphere(self, n=32, radius=0.3):
        ax = (np.arange(n) + 0.5) / n - 0.5
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        return radius - np.sqrt(x * x + y * y + z * z)

    def test_factor_one_identical(self):
        field = self._sphere()
        fid = isosurface_fidelity(field, 0.0, 1)
        assert fid.area_ratio == pytest.approx(1.0)
        assert fid.triangle_ratio == pytest.approx(1.0)

    def test_smooth_sphere_area_preserved_under_reduction(self):
        field = self._sphere(n=48)
        fid = isosurface_fidelity(field, 0.0, 2, spacing=(1 / 48,) * 3)
        assert fid.area_ratio == pytest.approx(1.0, abs=0.1)
        assert fid.reduced_triangles < fid.full_triangles

    def test_reduction_below_isosurface_scale_destroys_structure(self):
        # A tiny sphere vanishes when sampled at a factor beyond its size.
        field = self._sphere(n=32, radius=0.06)
        fid = isosurface_fidelity(field, 0.0, 8, spacing=(1 / 32,) * 3)
        assert fid.reduced_triangles < fid.full_triangles * 0.5

    def test_bad_factor(self):
        with pytest.raises(PolicyError):
            isosurface_fidelity(self._sphere(8), 0.0, 0)
