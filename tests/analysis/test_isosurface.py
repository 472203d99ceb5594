"""Tests for 3-D isosurface extraction."""

import numpy as np
import pytest

from repro.analysis.isosurface import extract_isosurface, surface_area, surface_stats
from repro.errors import PolicyError


def sphere_field(n=32, radius=0.3):
    """Signed distance-like field: f = radius - r, isosurface f=0 is a sphere."""
    ax = (np.arange(n) + 0.5) / n - 0.5
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return radius - np.sqrt(x * x + y * y + z * z), 1.0 / n


class TestIsosurface3D:
    def test_empty_when_no_crossing(self):
        field = np.zeros((4, 4, 4))
        verts, tris = extract_isosurface(field, 1.0)
        assert len(verts) == 0 and len(tris) == 0

    def test_sphere_is_closed_genus_zero(self):
        field, dx = sphere_field(24)
        verts, tris = extract_isosurface(field, 0.0, spacing=(dx, dx, dx))
        stats = surface_stats(verts, tris)
        assert stats.closed
        assert stats.euler_characteristic == 2
        assert stats.n_triangles > 100

    def test_sphere_area_converges(self):
        radius = 0.3
        field, dx = sphere_field(48, radius=radius)
        verts, tris = extract_isosurface(field, 0.0, spacing=(dx, dx, dx))
        area = surface_area(verts, tris)
        exact = 4 * np.pi * radius**2
        assert area == pytest.approx(exact, rel=0.05)

    def test_two_spheres_euler_four(self):
        n = 32
        ax = (np.arange(n) + 0.5) / n
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        r1 = 0.12 - np.sqrt((x - 0.3) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)
        r2 = 0.12 - np.sqrt((x - 0.7) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)
        field = np.maximum(r1, r2)
        verts, tris = extract_isosurface(field, 0.0)
        stats = surface_stats(verts, tris)
        assert stats.closed
        assert stats.euler_characteristic == 4  # two spheres

    def test_vertices_lie_on_isovalue_by_interpolation(self):
        # Linear field: interpolated vertices must lie exactly on the plane.
        n = 8
        ax = np.arange(n, dtype=float)
        x, _y, _z = np.meshgrid(ax, ax, ax, indexing="ij")
        verts, tris = extract_isosurface(x, 3.25)
        assert len(tris) > 0
        np.testing.assert_allclose(verts[:, 0], 3.25, atol=1e-12)

    def test_plane_area_matches_cross_section(self):
        n = 9
        ax = np.arange(n, dtype=float)
        x, _y, _z = np.meshgrid(ax, ax, ax, indexing="ij")
        verts, tris = extract_isosurface(x, 4.5)
        # The plane spans the full (n-1)x(n-1) cross-section.
        assert surface_area(verts, tris) == pytest.approx((n - 1) ** 2, rel=1e-9)

    def test_orientation_normals_point_outward(self):
        n = 16
        field, dx = sphere_field(n)
        verts, tris = extract_isosurface(field, 0.0, spacing=(dx, dx, dx))
        # With origin 0 and spacing dx, grid index i sits at i*dx, so the
        # sphere centre (index n/2 - 0.5) is at 0.5 - 0.5/n per axis.
        center = np.full(3, 0.5 - 0.5 / n)
        p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
        normals = np.cross(p1 - p0, p2 - p0)
        centroids = (p0 + p1 + p2) / 3
        outward = (normals * (centroids - center)).sum(axis=1)
        assert (outward > 0).all()

    def test_nan_cells_skipped(self):
        field, dx = sphere_field(16)
        field[:4, :, :] = np.nan
        verts, tris = extract_isosurface(field, 0.0)
        assert np.isfinite(verts).all()

    def test_spacing_and_origin_applied(self):
        n = 8
        ax = np.arange(n, dtype=float)
        x, _y, _z = np.meshgrid(ax, ax, ax, indexing="ij")
        verts, _ = extract_isosurface(x, 3.5, spacing=(2.0, 1.0, 1.0),
                                      origin=(10.0, 0.0, 0.0))
        np.testing.assert_allclose(verts[:, 0], 10.0 + 3.5 * 2.0, atol=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(PolicyError):
            extract_isosurface(np.zeros((4, 4)), 0.0)
        with pytest.raises(PolicyError):
            extract_isosurface(np.zeros((1, 4, 4)), 0.0)

    def test_triangle_count_scales_with_resolution(self):
        f1, _ = sphere_field(16)
        f2, _ = sphere_field(32)
        _, t1 = extract_isosurface(f1, 0.0)
        _, t2 = extract_isosurface(f2, 0.0)
        assert len(t2) > 2.5 * len(t1)  # ~4x for 2x resolution
