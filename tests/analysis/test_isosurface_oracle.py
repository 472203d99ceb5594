"""Oracle for ``extract_isosurface``: its per-case table walk, verbatim.

``extract_isosurface`` gathers every tetrahedron's triangles with table
lookups in one pass.  ``reference_isosurface`` is the implementation it
replaced, which loops over the 16 inside masks and their templates.  The
two must return byte-identical vertices and triangles, in the same
order, on generated fields with NaN cells, samples equal to the
isovalue and axes two samples wide.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.isosurface import _CORNERS, _TETS, _TRIANGLE_TABLE, extract_isosurface


def reference_isosurface(
    field: np.ndarray,
    isovalue: float,
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray]:
    field = np.asarray(field, dtype=np.float64)
    nx, ny, nz = field.shape

    flat = field.ravel()
    # Candidate cubes: those whose corner values straddle the isovalue.
    base = (
        np.arange(nx - 1)[:, None, None] * (ny * nz)
        + np.arange(ny - 1)[None, :, None] * nz
        + np.arange(nz - 1)[None, None, :]
    ).ravel()
    corner_offsets = _CORNERS[:, 0] * (ny * nz) + _CORNERS[:, 1] * nz + _CORNERS[:, 2]
    cube_vals = flat[base[:, None] + corner_offsets[None, :]]
    finite = np.isfinite(cube_vals).all(axis=1)
    crossing = (
        (cube_vals > isovalue).any(axis=1) & (cube_vals <= isovalue).any(axis=1) & finite
    )
    base = base[crossing]
    if base.size == 0:
        return np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)

    # All tets of the crossing cubes: global vertex ids (T, 4).
    tet_gids = base[:, None, None] + corner_offsets[_TETS][None, :, :]
    tet_gids = tet_gids.reshape(-1, 4)
    tet_vals = flat[tet_gids]
    inside = tet_vals > isovalue
    case = (inside * (1, 2, 4, 8)).sum(axis=1)

    spacing_arr = np.asarray(spacing, dtype=np.float64)
    origin_arr = np.asarray(origin, dtype=np.float64)

    def gid_to_xyz(gids: np.ndarray) -> np.ndarray:
        x = gids // (ny * nz)
        rem = gids % (ny * nz)
        y = rem // nz
        z = rem % nz
        return np.stack([x, y, z], axis=-1).astype(np.float64)

    all_pairs: list[np.ndarray] = []  # (n_tris, 3, 2) global-id edge pairs
    all_ref: list[np.ndarray] = []  # (n_tris, 3) reference direction

    for mask, templates in _TRIANGLE_TABLE.items():
        if not templates:
            continue
        sel = np.nonzero(case == mask)[0]
        if sel.size == 0:
            continue
        gids = tet_gids[sel]
        ins = [i for i in range(4) if mask >> i & 1]
        outs = [i for i in range(4) if not mask >> i & 1]
        pos = gid_to_xyz(gids)  # (n, 4, 3)
        ref = pos[:, outs].mean(axis=1) - pos[:, ins].mean(axis=1)
        for tri in templates:
            pairs = np.stack(
                [np.stack([gids[:, a], gids[:, b]], axis=-1) for a, b in tri],
                axis=1,
            )  # (n, 3, 2)
            all_pairs.append(pairs)
            all_ref.append(ref)

    pairs = np.concatenate(all_pairs, axis=0)  # (T, 3, 2)
    refs = np.concatenate(all_ref, axis=0)  # (T, 3)

    # Interpolated position per (triangle, corner).
    va = flat[pairs[..., 0]]
    vb = flat[pairs[..., 1]]
    t = (isovalue - va) / (vb - va)
    pa = gid_to_xyz(pairs[..., 0])
    pb = gid_to_xyz(pairs[..., 1])
    pts = pa + t[..., None] * (pb - pa)  # (T, 3, 3) in index space

    # Weld vertices by (sorted) global edge key, packed into one int64 per
    # edge: k0 * size + k1 keeps the lexicographic order of (k0, k1), so a
    # 1-D unique yields the same vertex order as a row-wise one.
    keys = np.sort(pairs.reshape(-1, 2), axis=1)
    uniq, index = np.unique(keys[:, 0] * flat.size + keys[:, 1], return_inverse=True)
    verts = np.zeros((uniq.shape[0], 3))
    verts[index] = pts.reshape(-1, 3)  # identical per key; last write wins
    tris = index.reshape(-1, 3)

    # Drop degenerate triangles (duplicate welded vertices).
    ok = (
        (tris[:, 0] != tris[:, 1])
        & (tris[:, 1] != tris[:, 2])
        & (tris[:, 0] != tris[:, 2])
    )
    tris = tris[ok]
    refs = refs[ok]

    # Orient: normal must point from inside to outside.
    p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    normals = np.cross(p1 - p0, p2 - p0)
    flip = (normals * refs).sum(axis=1) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]

    verts = origin_arr + verts * spacing_arr
    return verts, tris


# Few distinct levels, so many samples equal the isovalue and cut edges
# are shared; NaN cells are skipped by both.
LEVELS = st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, 0.5, np.nan])


@st.composite
def fields(draw):
    shape = tuple(draw(st.integers(2, 6)) for _ in range(3))
    field = draw(hnp.arrays(np.float64, shape, elements=st.one_of(LEVELS, st.floats(-2.0, 4.0))))
    isovalue = draw(st.sampled_from([0.0, 1.0, 0.5, 1.5]))
    return field, isovalue


@settings(deadline=None, max_examples=200)
@given(fields(), st.sampled_from([(1.0, 1.0, 1.0), (0.5, 2.0, 0.25)]))
def test_matches_table_walk_byte_for_byte(case, spacing):
    field, isovalue = case
    origin = (1.0, -2.0, 0.5)
    verts, tris = extract_isosurface(field, isovalue, spacing=spacing, origin=origin)
    want_verts, want_tris = reference_isosurface(field, isovalue, spacing=spacing, origin=origin)
    assert verts.shape == want_verts.shape and tris.shape == want_tris.shape
    assert verts.tobytes() == want_verts.tobytes()
    assert tris.tobytes() == want_tris.tobytes()
    assert verts.flags.c_contiguous and tris.flags.c_contiguous


def test_smooth_field_matches_table_walk():
    ax = np.linspace(-1.0, 1.0, 12)
    x, y, z = np.meshgrid(ax, ax, ax[:7], indexing="ij")
    field = np.sin(3 * x) + np.cos(2 * y) * z
    field[3, 4, 2] = np.nan
    verts, tris = extract_isosurface(field, 0.25)
    want_verts, want_tris = reference_isosurface(field, 0.25)
    assert len(tris) > 100
    assert verts.tobytes() == want_verts.tobytes() and tris.tobytes() == want_tris.tobytes()
