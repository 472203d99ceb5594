"""3-D isosurface extraction by marching tetrahedra.

The paper's visualization service runs marching cubes.  We implement the
tetrahedral variant: each grid cube is split into six tetrahedra sharing
the main diagonal, and every tetrahedron is polygonised against the
isovalue.  The variant preserves all the properties the paper's placement
arguments rely on -- strictly local per-cell work, no communication,
output proportional to intersected cells -- while its 16-case table can
be *derived* in code (see ``_tet_triangle_table``) instead of copied, so
correctness is testable: the suite verifies closed surfaces, Euler
characteristic 2 for spheres, and sphere areas within discretization
error.

Vertices are welded exactly by grid-edge identity, so the result is a
watertight indexed mesh.

``field`` holds vertex samples with shape ``(nx, ny, nz)``; cube corners
are adjacent vertices.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PolicyError

__all__ = ["extract_isosurface", "surface_area"]

# Cube corner offsets, Chombo/Bourke numbering adapted to (x, y, z).
_CORNERS = np.array(
    [
        (0, 0, 0),  # v0
        (1, 0, 0),  # v1
        (1, 1, 0),  # v2
        (0, 1, 0),  # v3
        (0, 0, 1),  # v4
        (1, 0, 1),  # v5
        (1, 1, 1),  # v6
        (0, 1, 1),  # v7
    ],
    dtype=np.int64,
)

# Six tetrahedra sharing the v0-v6 diagonal.  Neighbouring cubes split
# their shared faces along matching diagonals, making the mesh watertight.
_TETS = np.array(
    [
        (0, 5, 1, 6),
        (0, 1, 2, 6),
        (0, 2, 3, 6),
        (0, 3, 7, 6),
        (0, 7, 4, 6),
        (0, 4, 5, 6),
    ],
    dtype=np.int64,
)


def _tet_triangle_table() -> dict[int, list[tuple[tuple[int, int], ...]]]:
    """Triangles (as triples of corner-pair edges) for each 4-bit inside mask.

    Bit ``i`` of the mask set means local corner ``i`` is inside
    (value > isovalue).  One inside corner yields one triangle; two yield
    a quad split into two triangles; complements mirror.
    """
    table: dict[int, list[tuple[tuple[int, int], ...]]] = {}
    for mask in range(16):
        inside = [i for i in range(4) if mask >> i & 1]
        outside = [i for i in range(4) if not mask >> i & 1]
        tris: list[tuple[tuple[int, int], ...]] = []
        if len(inside) == 1:
            i = inside[0]
            j, k, l = outside
            tris = [((i, j), (i, k), (i, l))]
        elif len(inside) == 3:
            o = outside[0]
            j, k, l = inside
            tris = [((j, o), (k, o), (l, o))]
        elif len(inside) == 2:
            i, j = inside
            k, l = outside
            quad = ((i, k), (i, l), (j, l), (j, k))
            tris = [(quad[0], quad[1], quad[2]), (quad[0], quad[2], quad[3])]
        table[mask] = tris
    return table


_TRIANGLE_TABLE = _tet_triangle_table()

# The table as arrays indexed by inside mask: triangle count, and per
# (template, triangle corner) the local tet corners of the cut edge.
_TRIANGLE_COUNT = np.array([len(_TRIANGLE_TABLE[mask]) for mask in range(16)])
_TRIANGLE_EDGES = np.zeros((16, 2, 3, 2), dtype=np.int64)
for _mask, _templates in _TRIANGLE_TABLE.items():
    for _t, _tri in enumerate(_templates):
        _TRIANGLE_EDGES[_mask, _t] = _tri


def extract_isosurface(
    field: np.ndarray,
    isovalue: float,
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Extract the ``isovalue`` surface of ``field``.

    Returns ``(vertices, triangles)``: float ``(V, 3)`` positions and int
    ``(T, 3)`` indices.  Triangles are oriented with normals pointing
    from the inside (``field > isovalue``) toward the outside.  Cells
    containing NaN samples are skipped.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3:
        raise PolicyError(f"field must be 3-D, got shape {field.shape}")
    if any(s < 2 for s in field.shape):
        raise PolicyError(f"field too small for isosurfacing: {field.shape}")
    nx, ny, nz = field.shape

    flat = field.ravel()
    # Candidate cubes: those whose corner values straddle the isovalue,
    # all of them finite (NaN and inf reach the corner max or min).
    base = (
        np.arange(nx - 1)[:, None, None] * (ny * nz)
        + np.arange(ny - 1)[None, :, None] * nz
        + np.arange(nz - 1)[None, None, :]
    ).ravel()
    corner_offsets = _CORNERS[:, 0] * (ny * nz) + _CORNERS[:, 1] * nz + _CORNERS[:, 2]
    cube_vals = flat[corner_offsets[:, None] + base[None, :]]  # (8, cubes)
    high, low = cube_vals.max(axis=0), cube_vals.min(axis=0)
    crossing = (high > isovalue) & (low <= isovalue) & np.isfinite(high) & np.isfinite(low)
    if not crossing.any():
        return np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)
    base = base[crossing]

    # Global vertex ids (4, T) and index-space positions (3, 4, T) of
    # every tet of the crossing cubes, tet j of cube i at column 6 * i + j,
    # then of only the tets the surface cuts.
    gids = (corner_offsets[_TETS].T[:, None, :] + base[None, :, None]).reshape(4, -1)
    cubes = np.array(np.unravel_index(np.flatnonzero(crossing), (nx - 1, ny - 1, nz - 1)))
    at = _CORNERS[_TETS].transpose(2, 1, 0)[:, :, None, :] + cubes[:, None, :, None]
    at = at.reshape(3, 4, -1)
    inside = flat[gids] > isovalue
    case = np.array([1, 2, 4, 8]) @ inside
    cut = np.flatnonzero(_TRIANGLE_COUNT[case])
    gids, at, inside, case = gids[:, cut], at[:, :, cut], inside[:, cut], case[cut]

    # One triangle per (tet, template), ordered by case, then template,
    # then tet: the order of a walk over the table.
    count = _TRIANGLE_COUNT[case]
    tet = np.repeat(np.arange(case.size), count)
    template = np.arange(tet.size) - np.repeat(np.cumsum(count) - count, count)
    order = np.argsort((2 * case[tet] + template).astype(np.int8), kind="stable")
    tet, template = tet[order], template[order]
    # Per (triangle, corner) the flat (local corner, tet) index of both
    # ends of its cut edge.
    ends = _TRIANGLE_EDGES[case[tet], template] * case.size + tet[:, None, None]
    pairs = gids.ravel()[ends]  # (T, 3, 2) global-id edge pairs

    # Reference direction (3, T): mean outside corner minus mean inside
    # corner.  The corner sums are of small integers, so exact in any
    # order, and divided by the corner counts they equal a float mean.
    inner = (at * inside).sum(axis=1)
    n_in = inside.sum(axis=0)
    refs = ((at.sum(axis=1) - inner) / (4 - n_in) - inner / n_in)[:, tet]

    # Interpolated position (3, T, 3) per (triangle, corner).
    va = flat[pairs[..., 0]]
    vb = flat[pairs[..., 1]]
    t = (isovalue - va) / (vb - va)
    at = at.reshape(3, -1).astype(np.float64)
    pa = at[:, ends[..., 0]]
    pts = pa + t * (at[:, ends[..., 1]] - pa)

    # Weld vertices by (sorted) global edge key, packed into one int64 per
    # edge: k0 * size + k1 keeps the lexicographic order of (k0, k1), so a
    # 1-D unique yields the same vertex order as a row-wise one.
    k0 = np.minimum(pairs[..., 0], pairs[..., 1]).ravel()
    k1 = np.maximum(pairs[..., 0], pairs[..., 1]).ravel()
    uniq, index = np.unique(k0 * flat.size + k1, return_inverse=True)
    verts = np.zeros((3, uniq.shape[0]))
    verts[:, index] = pts.reshape(3, -1)  # identical per key; last write wins
    tris = index.reshape(-1, 3)

    # Drop degenerate triangles (duplicate welded vertices).
    ok = (
        (tris[:, 0] != tris[:, 1])
        & (tris[:, 1] != tris[:, 2])
        & (tris[:, 0] != tris[:, 2])
    )
    tris = tris[ok]
    refs = refs[:, ok]

    # Orient: normal must point from inside to outside.
    p0, p1, p2 = verts[:, tris[:, 0]], verts[:, tris[:, 1]], verts[:, tris[:, 2]]
    normals = np.cross(p1 - p0, p2 - p0, axis=0)
    flip = (normals * refs).sum(axis=0) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]

    spacing_arr = np.asarray(spacing, dtype=np.float64)[:, None]
    origin_arr = np.asarray(origin, dtype=np.float64)[:, None]
    return np.ascontiguousarray((origin_arr + verts * spacing_arr).T), tris


def surface_area(verts: np.ndarray, tris: np.ndarray) -> float:
    """Total area of the triangle mesh."""
    if len(tris) == 0:
        return 0.0
    p0 = verts[tris[:, 0]]
    p1 = verts[tris[:, 1]]
    p2 = verts[tris[:, 2]]
    return float(0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1).sum())
