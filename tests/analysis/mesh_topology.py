"""Topology summary of an extracted triangle mesh, for the isosurface tests."""

from typing import NamedTuple

import numpy as np


class SurfaceStats(NamedTuple):
    n_vertices: int
    n_edges: int
    n_triangles: int
    euler_characteristic: int
    closed: bool


def surface_stats(verts: np.ndarray, tris: np.ndarray) -> SurfaceStats:
    """Vertex/edge/face counts, Euler characteristic and closedness."""
    if len(tris) == 0:
        return SurfaceStats(0, 0, 0, 0, True)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    v = int(np.unique(tris).size)
    e = int(uniq.shape[0])
    f = int(tris.shape[0])
    return SurfaceStats(v, e, f, v - e + f, bool((counts == 2).all()))
