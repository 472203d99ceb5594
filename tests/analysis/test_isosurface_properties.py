"""Property-based tests for the isosurface extractor's mesh invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.isosurface import extract_isosurface
from tests.analysis.mesh_topology import surface_stats


def smooth_field(seed: int, n: int) -> np.ndarray:
    """A random band-limited field: a few random Fourier modes."""
    rng = np.random.default_rng(seed)
    ax = np.linspace(0, 2 * np.pi, n)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    field = np.zeros((n, n, n))
    for _ in range(4):
        kx, ky, kz = rng.integers(1, 3, size=3)
        phase = rng.uniform(0, 2 * np.pi, size=3)
        field += rng.normal() * (
            np.sin(kx * x + phase[0])
            * np.sin(ky * y + phase[1])
            * np.sin(kz * z + phase[2])
        )
    return field


class TestMeshInvariants:
    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000), st.integers(8, 16), st.floats(-0.5, 0.5))
    def test_edge_manifoldness(self, seed, n, isovalue):
        """Every mesh edge belongs to at most two triangles (no fins)."""
        field = smooth_field(seed, n)
        verts, tris = extract_isosurface(field, isovalue)
        if len(tris) == 0:
            return
        edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        edges = np.sort(edges, axis=1)
        _uniq, counts = np.unique(edges, axis=0, return_counts=True)
        assert counts.max() <= 2

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000), st.integers(8, 14))
    def test_vertices_inside_grid(self, seed, n):
        field = smooth_field(seed, n)
        verts, tris = extract_isosurface(field, 0.0)
        if len(verts) == 0:
            return
        assert verts.min() >= -1e-9
        assert verts.max() <= n - 1 + 1e-9

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000), st.integers(8, 14), st.floats(-0.4, 0.4))
    def test_triangles_reference_valid_vertices(self, seed, n, isovalue):
        field = smooth_field(seed, n)
        verts, tris = extract_isosurface(field, isovalue)
        if len(tris) == 0:
            return
        assert tris.min() >= 0
        assert tris.max() < len(verts)
        # No degenerate triangles survive.
        assert (tris[:, 0] != tris[:, 1]).all()
        assert (tris[:, 1] != tris[:, 2]).all()
        assert (tris[:, 0] != tris[:, 2]).all()

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10_000))
    def test_euler_characteristic_is_even_for_closed_meshes(self, seed):
        """Closed orientable surfaces have chi = 2 - 2g (always even)."""
        field = smooth_field(seed, 12)
        verts, tris = extract_isosurface(field, 0.0)
        stats = surface_stats(verts, tris)
        if stats.closed and stats.n_triangles:
            assert stats.euler_characteristic % 2 == 0

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10_000), st.floats(-0.3, 0.3))
    def test_isovalue_shift_changes_surface_continuously(self, seed, isovalue):
        """Nearby isovalues give comparable triangle counts (no blowups)."""
        field = smooth_field(seed, 10)
        _, t1 = extract_isosurface(field, isovalue)
        _, t2 = extract_isosurface(field, isovalue + 1e-9)
        if len(t1) > 50:
            assert abs(len(t1) - len(t2)) <= 0.2 * len(t1)
