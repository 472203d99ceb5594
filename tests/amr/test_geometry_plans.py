"""Oracle tests for the AMR copy plans built from level owner maps.

The exchange, coarse-fine ghost-fill and average-down plans are buffer
columns read off owner maps.  The oracles below are per-``Box``
constructions: a neighbour search over every periodic image, ``Box``
intersections and ``Box.slices`` per pair.  Their cells are turned into
buffer columns through the per-box views (:func:`labels`), and every plan
must map exactly the same cells to the same cells as its oracle, with the
same parents, offsets and cell counts, on layouts that ``cluster_tags``
builds from random tag masks.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.amr.box import Box
from repro.amr.coarsefine import prolong
from repro.amr.hierarchy import AMRHierarchy


# -- oracles -----------------------------------------------------------------


def labels(data):
    """Per-box arrays of buffer column numbers, read through ``data.data``.

    Labels component 0 of the buffer with its own column index, so the
    oracles reach buffer columns only through the per-box views.
    """
    data.buffer[0] = np.arange(data.buffer.shape[1])
    return [arr[0].astype(np.int64) for arr in data.data]


def oracle_exchange_columns(data, periodic_domain):
    """The oracle's ``(dst, src)`` buffer columns, sorted by ``dst``, and its cell count."""
    box_labels = labels(data)
    plan = oracle_exchange_plan(data, periodic_domain)
    dst = [box_labels[i][d[1:]].ravel() for i, _, d, _, _ in plan]
    src = [box_labels[j][s[1:]].ravel() for _, j, _, s, _ in plan]
    dst = np.concatenate(dst) if dst else np.zeros(0, dtype=np.int64)
    src = np.concatenate(src) if src else np.zeros(0, dtype=np.int64)
    order = np.argsort(dst)
    return dst[order], src[order], sum(cells for *_, cells in plan)


def oracle_neighbors(layout, index, radius, periodic_domain):
    """``(j, shift)`` of every box image a ghost region of ``radius`` touches."""
    me = layout.boxes[index].grow(radius)
    zero = (0,) * layout.ndim
    shifts = [zero]
    if periodic_domain is not None and not periodic_domain.contains_box(me):
        shifts = list(itertools.product(*[(-e, 0, e) for e in periodic_domain.shape]))
    los, his = layout._corner_arrays()
    out = []
    for shift in shifts:
        mask = ((los + shift <= me.hi) & (his + shift >= me.lo)).all(axis=1)
        for j in np.nonzero(mask)[0]:
            if j == index and shift == zero:
                continue
            out.append((int(j), shift))
    return out


def oracle_exchange_plan(data, periodic_domain):
    plan = []
    for i in range(len(data.layout)):
        dst_origin = data.grown_box(i)
        for j, shift in oracle_neighbors(data.layout, i, data.nghost, periodic_domain):
            region = dst_origin.intersect(data.layout.boxes[j].shift(shift))
            if region.is_empty():
                continue
            src_origin = data.grown_box(j).shift(shift)
            plan.append((
                i, j,
                (slice(None), *region.slices(origin=dst_origin)),
                (slice(None), *region.slices(origin=src_origin)),
                region.size,
            ))
    return plan


def oracle_ghost_mask(h, level, i, interior):
    """Cells of fine box ``i``'s grown box the coarse-fine fill writes."""
    layout = h.levels[level].layout
    g = h.levels[level].data.nghost
    level_domain = h.level_domain(level)
    box = layout.boxes[i]
    grown = box.grow(g)
    if interior:
        mask = np.zeros(grown.shape, dtype=bool)
        mask[box.slices(origin=grown)] = True
        return mask
    mask = np.ones(grown.shape, dtype=bool)
    mask[box.slices(origin=grown)] = False
    if not h.periodic:
        keep = np.zeros(grown.shape, dtype=bool)
        inside = grown.intersect(level_domain)
        if not inside.is_empty():
            keep[inside.slices(origin=grown)] = True
        mask &= keep
    domain_arg = level_domain if h.periodic else None
    for j, shift in oracle_neighbors(layout, i, g, domain_arg):
        covered = grown.intersect(layout.boxes[j].shift(shift))
        if not covered.is_empty():
            mask[covered.slices(origin=grown)] = False
    return mask


def oracle_ghost_plan(h, level, pad, interior):
    """``(parent, offsets, scatter)`` with one parent index per gathered cell."""
    layout = h.levels[level].layout
    g = h.levels[level].data.nghost
    r = h.ref_ratio
    cdomain = h.level_domain(level - 1)
    ndim = cdomain.ndim
    pshape = tuple(s + 2 * pad for s in cdomain.shape)
    strides = [int(np.prod(pshape[d + 1:])) for d in range(ndim)]
    offs_table = (np.arange(r) + 0.5) / r - 0.5
    parent_parts, offset_parts, scatter = [], [[] for _ in range(ndim)], []
    total = 0
    for i, box in enumerate(layout):
        grown = box.grow(g)
        idx = np.nonzero(oracle_ghost_mask(h, level, i, interior).ravel())[0]
        if idx.size == 0:
            continue
        coords = np.unravel_index(idx, grown.shape)
        pidx = np.zeros(idx.size, dtype=np.int64)
        for axis in range(ndim):
            gx = coords[axis].astype(np.int64) + grown.lo[axis]
            pc = gx // r
            offset_parts[axis].append(offs_table[gx - pc * r])
            pidx += (pc - (cdomain.lo[axis] - pad)) * strides[axis]
        parent_parts.append(pidx)
        scatter.append((i, idx, total, total + idx.size))
        total += idx.size
    if total == 0:
        return None
    return (np.concatenate(parent_parts),
            [np.concatenate(parts) for parts in offset_parts], scatter)


def avgdown_columns(fine, plan, r):
    """``{(fine box, restricted cell): coarse column}`` of an average-down plan."""
    out = {}
    for (indices, valid), (src, dst) in zip(fine.valid_groups(), plan):
        cells = int(np.prod([s // r for s in valid.shape[2:]]))
        for p, column in zip(src.tolist(), dst.tolist()):
            out[(indices[p // cells], p % cells)] = column
    return out


def oracle_avgdown_columns(h, fine, coarse):
    """The same mapping from the per-pair oracle plan."""
    box_labels = labels(coarse.data)
    out = {}
    for i, j, dst_idx, src_idx in oracle_avgdown_plan(h, fine, coarse):
        shape = fine.layout.boxes[i].coarsen(h.ref_ratio).shape
        cells = np.arange(int(np.prod(shape))).reshape(shape)[src_idx[1:]].ravel()
        columns = box_labels[j][dst_idx[1:]].ravel()
        out.update(zip(((i, c) for c in cells.tolist()), columns.tolist()))
    return out


def oracle_avgdown_plan(h, fine, coarse):
    r = h.ref_ratio
    plan = []
    for i, fbox in enumerate(fine.layout):
        cbox = fbox.coarsen(r)
        for j, box in enumerate(coarse.layout):
            region = cbox.intersect(box)
            if region.is_empty():
                continue
            plan.append((
                i, j,
                (slice(None), *region.slices(origin=coarse.data.grown_box(j))),
                (slice(None), *region.slices(origin=cbox)),
            ))
    return plan


# -- random cluster_tags hierarchies ---------------------------------------------


@st.composite
def hierarchies(draw):
    """A two-level hierarchy whose fine layout ``cluster_tags`` built from a random mask."""
    ndim = draw(st.sampled_from([2, 3]))
    n = 12 if ndim == 2 else 6
    mask = draw(hnp.arrays(dtype=bool, shape=(n,) * ndim))
    h = AMRHierarchy(
        Box((0,) * ndim, (n - 1,) * ndim),
        ncomp=2,
        nghost=draw(st.integers(1, 3)),
        ref_ratio=draw(st.sampled_from([2, 4])),
        max_levels=2,
        max_box_size=draw(st.sampled_from([4, 8])),
        dx0=1.0 / n,
        periodic=draw(st.booleans()),
        tag_buffer=draw(st.integers(0, 1)),
    )
    h.regrid({0: mask})
    return h


def pad_width(h):
    return -(-h.nghost // h.ref_ratio) + 1


@settings(deadline=None, max_examples=40)
@given(hierarchies())
def test_exchange_plans_match_oracle(h):
    for level, spec in enumerate(h.levels):
        domain = h.level_domain(level) if h.periodic else None
        dst, src = spec.data._exchange_plan(domain)
        want_dst, want_src, cells = oracle_exchange_columns(spec.data, domain)
        order = np.argsort(dst)
        np.testing.assert_array_equal(dst[order], want_dst)
        np.testing.assert_array_equal(src[order], want_src)
        assert dst.size == cells


@settings(deadline=None, max_examples=40)
@given(hierarchies())
def test_ghost_fill_plans_match_oracle(h):
    for level in range(1, len(h.levels)):
        for interior in (False, True):
            pad = pad_width(h)
            got = h._ghost_fill_plan(level, pad, interior=interior)
            want = oracle_ghost_plan(h, level, pad, interior)
            if want is None:
                assert got is None
                continue
            unique, inverse, offsets, dst = got[:4]
            # The oracle gathers box by box; the plan may gather in any
            # order, so both are compared cell by cell in column order.
            box_labels = labels(h.levels[level].data)
            want_dst = np.concatenate([box_labels[i].ravel()[idx] for i, idx, _, _ in want[2]])
            order, want_order = np.argsort(dst), np.argsort(want_dst)
            np.testing.assert_array_equal(dst[order], want_dst[want_order])
            np.testing.assert_array_equal(unique[inverse][order], want[0][want_order])
            assert len(offsets) == len(want[1])
            for a, b in zip(offsets, want[1]):
                np.testing.assert_array_equal(a[order], b[want_order])


@settings(deadline=None, max_examples=40)
@given(hierarchies())
def test_avgdown_plans_match_oracle(h):
    for level in range(1, len(h.levels)):
        fine, coarse = h.levels[level], h.levels[level - 1]
        got = avgdown_columns(fine.data, h._avgdown_plan(fine, coarse), h.ref_ratio)
        assert got == oracle_avgdown_columns(h, fine, coarse)


@settings(deadline=None, max_examples=30)
@given(hierarchies(), st.integers(0, 2**32 - 1))
def test_uncovered_ghosts_equal_prolonged_coarse_region(h, seed):
    """After ``fill_ghosts``, an uncovered fine ghost holds ``prolong(order=1)``.

    The reference prolongs each fine box's coarse region, grown by one
    cell so every parent has both slope neighbours.  Coarse values past
    the domain are the periodic wrap or the edge extension.
    """
    if h.finest_level == 0:
        return
    rng = np.random.default_rng(seed)
    coarse = h.levels[0].data
    for i in range(len(coarse.layout)):
        view = coarse.valid_view(i)
        view[...] = rng.normal(size=view.shape)
    h.fill_ghosts(1)
    r = h.ref_ratio
    cdomain = h.level_domain(0)
    pad = pad_width(h)
    padded = np.pad(coarse.to_dense(cdomain), [(0, 0)] + [(pad, pad)] * cdomain.ndim,
                    mode="wrap" if h.periodic else "edge")
    padded_box = cdomain.grow(pad)
    fine = h.levels[1]
    for i, box in enumerate(fine.layout):
        grown = box.grow(h.nghost)
        region = grown.coarsen(r).grow(1)
        values = prolong(padded[(slice(None), *region.slices(origin=padded_box))], r, order=1)
        want = values[(slice(None), *grown.slices(origin=region.refine(r)))]
        mask = oracle_ghost_mask(h, 1, i, interior=False)
        np.testing.assert_array_equal(fine.data.data[i][:, mask], want[:, mask])


@st.composite
def regrids(draw):
    """A hierarchy from :func:`hierarchies` and a second random level-0 mask."""
    h = draw(hierarchies())
    return h, draw(hnp.arrays(dtype=bool, shape=h.level_domain(0).shape))


@settings(deadline=None, max_examples=40)
@given(regrids(), st.integers(0, 2**32 - 1))
def test_second_regrid_keeps_overlap_and_prolongs_the_rest(case, seed):
    """After a second regrid every valid fine cell is either copied from the
    old fine level (where an old box covered it) or ``prolong(order=1)`` of
    the coarse data, checked box by box against ``Box`` intersections."""
    h, mask = case
    rng = np.random.default_rng(seed)
    for spec in h.levels:
        for i in range(len(spec.layout)):
            view = spec.data.valid_view(i)
            view[...] = rng.normal(size=view.shape)
    old = [(box, h.levels[1].data.valid_view(i).copy())
           for i, box in enumerate(h.levels[1].layout)] if h.finest_level else []
    r = h.ref_ratio
    cdomain = h.level_domain(0)
    pad = pad_width(h)
    padded = np.pad(h.levels[0].data.to_dense(cdomain), [(0, 0)] + [(pad, pad)] * cdomain.ndim,
                    mode="wrap" if h.periodic else "edge")
    padded_box = cdomain.grow(pad)
    h.regrid({0: mask})
    if h.finest_level == 0:
        return
    fine = h.levels[1]
    for i, box in enumerate(fine.layout):
        region = box.coarsen(r).grow(1)
        values = prolong(padded[(slice(None), *region.slices(origin=padded_box))], r, order=1)
        want = values[(slice(None), *box.slices(origin=region.refine(r)))]
        for old_box, old_valid in old:
            kept = box.intersect(old_box)
            if not kept.is_empty():
                want[(slice(None), *kept.slices(origin=box))] = \
                    old_valid[(slice(None), *kept.slices(origin=old_box))]
        np.testing.assert_array_equal(fine.data.valid_view(i), want)


# -- pinned gas-solver digest ----------------------------------------------------


class TestGasSolverDigest:
    """The Figs. 1/5 gas configuration stays byte-identical.

    The digest and counts were captured before the plans moved to corner
    arrays; 8 steps include the regrids at steps 4 and 8.
    """

    GOLDEN_LEVEL_SHA256 = "1eafe7493d76d4af66e114ed84d7a85473427674de4250e5abdd5ce7cd8db05a"
    # (step, cells_per_level, boxes_per_level, halo_bytes, state_bytes, regridded)
    GOLDEN_COUNTS = (
        [(s, (1024, 1600), (2, 26), 330240, 627200, False) for s in (1, 2, 3)]
        + [(4, (1024, 2400), (2, 41), 330240, 911360, True)]
        + [(s, (1024, 2400), (2, 41), 534400, 911360, False) for s in (5, 6, 7, 8)]
    )
    GOLDEN_RANK_BYTES = (
        [[186240, 186240, 127360, 127360]] * 3 + [[253120, 260800, 197440, 200000]] * 5
    )

    def test_gas_stepper_matches_pinned_digest(self):
        from repro.experiments.fig1_memory import _gas_stepper

        stepper = _gas_stepper(16, 4)
        stats = stepper.run(8)
        digest = hashlib.sha256()
        for spec in stepper.hierarchy.levels:
            for arr in spec.data.data:
                digest.update(arr.tobytes())
        assert digest.hexdigest() == self.GOLDEN_LEVEL_SHA256
        counts = [
            (s.step, s.cells_per_level, s.boxes_per_level, s.halo_bytes,
             s.state_bytes, s.regridded)
            for s in stats
        ]
        assert counts == self.GOLDEN_COUNTS
        assert [s.rank_bytes.tolist() for s in stats] == self.GOLDEN_RANK_BYTES


@pytest.mark.parametrize("periodic", [True, False])
def test_layout_plans_share_one_cache(periodic):
    h = AMRHierarchy(Box((0, 0), (15, 15)), nghost=2, max_levels=2,
                     max_box_size=8, periodic=periodic)
    h.regrid({0: np.eye(16, dtype=bool)})
    h.fill_ghosts(1)
    h.average_down()
    kinds = {key[0] for key in h.levels[1].layout.plans}
    assert kinds == {"exchange", "coarse_fill", "avgdown"}
