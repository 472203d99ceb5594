"""Tests for tagging and Berger-Rigoutsos clustering."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.amr.box import Box
from repro.amr.clustering import cluster_tags
from repro.amr.tagging import buffer_tags, tag_undivided_difference
from repro.errors import GeometryError


class TestTagging:
    def test_step_function_tags_jump(self):
        field = np.zeros(10)
        field[5:] = 1.0
        tags = tag_undivided_difference(field, 0.5)
        assert tags[4] and tags[5]
        assert not tags[0] and not tags[9]

    def test_smooth_field_untagged(self):
        x = np.linspace(0, 1, 50)
        tags = tag_undivided_difference(0.01 * x, 0.1)
        assert not tags.any()

    def test_2d_jump_tagged_along_line(self):
        field = np.zeros((8, 8))
        field[:, 4:] = 1.0
        tags = tag_undivided_difference(field, 0.5)
        assert tags[:, 3].all() and tags[:, 4].all()
        assert not tags[:, 0].any()

    def test_nan_cells_never_tagged(self):
        field = np.zeros((6, 6))
        field[2:, :] = np.nan
        field[0, 3] = 10.0
        tags = tag_undivided_difference(field, 0.5)
        assert not tags[3:, :].any()
        assert tags[0, 3]

    def test_negative_threshold_rejected(self):
        with pytest.raises(GeometryError):
            tag_undivided_difference(np.zeros(4), -1.0)


class TestBufferTags:
    def test_buffer_grows_by_radius(self):
        tags = np.zeros((9, 9), dtype=bool)
        tags[4, 4] = True
        grown = buffer_tags(tags, 2)
        assert grown[2, 4] and grown[4, 2] and grown[6, 4]
        assert not grown[1, 4]
        # Diamond (separable per-step) growth: corner at distance 2+2 untouched
        assert not grown[1, 1]

    def test_buffer_zero_identity(self):
        tags = np.random.default_rng(0).random((5, 5)) > 0.5
        np.testing.assert_array_equal(buffer_tags(tags, 0), tags)

    def test_buffer_negative_rejected(self):
        with pytest.raises(GeometryError):
            buffer_tags(np.zeros((2, 2), dtype=bool), -1)

    def test_buffer_clips_at_array_edge(self):
        tags = np.zeros((4, 4), dtype=bool)
        tags[0, 0] = True
        grown = buffer_tags(tags, 3)
        assert grown.shape == (4, 4)
        assert grown[3, 0] and grown[0, 3]


class TestClusterTags:
    def test_empty_tags_no_boxes(self):
        assert cluster_tags(np.zeros((8, 8), dtype=bool)) == []

    def test_single_cell(self):
        tags = np.zeros((8, 8), dtype=bool)
        tags[3, 5] = True
        boxes = cluster_tags(tags)
        assert boxes == [Box((3, 5), (3, 5))]

    def test_full_block_single_box(self):
        tags = np.zeros((16, 16), dtype=bool)
        tags[4:8, 4:8] = True
        boxes = cluster_tags(tags, fill_ratio=0.9)
        assert boxes == [Box((4, 4), (7, 7))]

    def test_origin_shift(self):
        tags = np.zeros((8, 8), dtype=bool)
        tags[0, 0] = True
        boxes = cluster_tags(tags, origin=(10, 20))
        assert boxes == [Box((10, 20), (10, 20))]

    def test_two_separated_clusters_split(self):
        tags = np.zeros((32, 32), dtype=bool)
        tags[2:6, 2:6] = True
        tags[20:24, 20:24] = True
        boxes = cluster_tags(tags, fill_ratio=0.7)
        assert len(boxes) >= 2
        covered = np.zeros_like(tags)
        for b in boxes:
            covered[b.slices(origin=Box((0, 0), (31, 31)))] = True
        assert (covered >= tags).all()

    def test_max_box_size_respected(self):
        tags = np.ones((64, 64), dtype=bool)
        boxes = cluster_tags(tags, max_box_size=16)
        assert all(max(b.shape) <= 16 for b in boxes)

    def test_bad_params_rejected(self):
        tags = np.zeros((4, 4), dtype=bool)
        with pytest.raises(GeometryError):
            cluster_tags(tags, fill_ratio=0.0)
        with pytest.raises(GeometryError):
            cluster_tags(tags, max_box_size=0)
        with pytest.raises(GeometryError):
            cluster_tags(tags, origin=(0,))

    @settings(deadline=None, max_examples=40)
    @given(
        hnp.arrays(
            dtype=bool,
            shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        ),
        st.floats(0.3, 1.0),
        st.integers(2, 16),
    )
    def test_invariants_cover_disjoint_fill(self, tags, fill_ratio, max_box_size):
        boxes = cluster_tags(tags, fill_ratio=fill_ratio, max_box_size=max_box_size)
        if not tags.any():
            assert boxes == []
            return
        shape = tags.shape
        origin = Box((0, 0), (shape[0] - 1, shape[1] - 1))
        covered = np.zeros(shape, dtype=bool)
        for b in boxes:
            slc = b.slices(origin=origin)
            # Disjoint: no double cover.
            assert not covered[slc].any()
            covered[slc] = True
        # Every tag covered.
        assert (covered | ~tags).all()

    @settings(deadline=None, max_examples=30)
    @given(
        hnp.arrays(dtype=bool, shape=st.tuples(st.integers(2, 12), st.integers(2, 12),
                                               st.integers(2, 12)))
    )
    def test_3d_coverage(self, tags):
        boxes = cluster_tags(tags, fill_ratio=0.5, max_box_size=8)
        if not tags.any():
            assert boxes == []
            return
        shape = tags.shape
        origin = Box((0, 0, 0), tuple(s - 1 for s in shape))
        covered = np.zeros(shape, dtype=bool)
        for b in boxes:
            covered[b.slices(origin=origin)] = True
        assert (covered | ~tags).all()


# -- oracle: the Berger-Rigoutsos implementation that built a Box and
# recomputed every signature per region, kept verbatim as the reference --


def _reference_cluster_tags(tags, fill_ratio=0.7, max_box_size=32, origin=None):
    tags = np.asarray(tags, dtype=bool)
    if origin is None:
        origin = tuple(0 for _ in range(tags.ndim))
    if not tags.any():
        return []
    accepted = []
    _reference_recurse(tags, _reference_bounding_box(tags), fill_ratio, max_box_size,
                       accepted)
    return [box.shift(origin) for box in accepted]


def _reference_bounding_box(tags):
    coords = np.nonzero(tags)
    return Box(tuple(int(c.min()) for c in coords), tuple(int(c.max()) for c in coords))


def _reference_recurse(tags, region, fill_ratio, max_box_size, accepted):
    sub = tags[tuple(slice(l, h + 1) for l, h in zip(region.lo, region.hi))]
    count = int(sub.sum())
    if count == 0:
        return
    tight = _reference_bounding_box(sub).shift(region.lo)
    if tight != region:
        _reference_recurse(tags, tight, fill_ratio, max_box_size, accepted)
        return
    ratio = count / region.size
    if ratio >= fill_ratio and max(region.shape) <= max_box_size:
        accepted.append(region)
        return
    axis, cut = _reference_find_cut(sub, region)
    if cut is None:
        accepted.append(region)
        return
    low, high = region.split_axis(axis, cut)
    _reference_recurse(tags, low, fill_ratio, max_box_size, accepted)
    _reference_recurse(tags, high, fill_ratio, max_box_size, accepted)


def _reference_find_cut(sub, region):
    splittable = [d for d in range(sub.ndim) if region.shape[d] >= 2]
    if not splittable:
        return 0, None
    splittable.sort(key=lambda d: -region.shape[d])
    for axis in splittable:
        signature = _reference_signature(sub, axis)
        zeros = np.nonzero(signature == 0)[0]
        if zeros.size:
            centre = (len(signature) - 1) / 2
            hole = int(zeros[np.argmin(np.abs(zeros - centre))])
            cut_local = hole + 1 if hole + 1 < len(signature) else hole
            if 0 < cut_local < len(signature):
                return axis, region.lo[axis] + cut_local
    best = None
    for axis in splittable:
        signature = _reference_signature(sub, axis)
        if len(signature) < 4:
            continue
        lap = signature[:-2] - 2 * signature[1:-1] + signature[2:]
        jump = np.abs(np.diff(lap))
        if jump.size == 0:
            continue
        k = int(np.argmax(jump))
        strength = float(jump[k])
        cut_local = k + 2
        if 0 < cut_local < len(signature) and strength > 0:
            if best is None or strength > best[0]:
                best = (strength, axis, region.lo[axis] + cut_local)
    if best is not None:
        return best[1], best[2]
    axis = splittable[0]
    return axis, region.lo[axis] + region.shape[axis] // 2


def _reference_signature(sub, axis):
    other = tuple(d for d in range(sub.ndim) if d != axis)
    return sub.sum(axis=other).astype(np.int64)


@st.composite
def tag_masks(draw):
    """A 1-3-D mask of any tag density, and a nonzero-able origin for it."""
    ndim = draw(st.integers(1, 3))
    side = st.integers(1, 14 if ndim < 3 else 9)
    shape = tuple(draw(st.lists(side, min_size=ndim, max_size=ndim)))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    origin = tuple(draw(st.lists(st.integers(-20, 40), min_size=ndim, max_size=ndim)))
    return rng.random(shape) < density, origin


class TestClusterTagsOracle:
    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(
        tag_masks(),
        st.floats(0.0, 1.0, exclude_min=True),
        st.integers(1, 10),
    )
    # Ties random masks rarely hit: two holes equally near the centre ...
    @example((np.array([1, 0, 1, 1, 0, 1], dtype=bool), (3,)), 0.7, 10)
    # ... two equal inflection jumps on one axis ...
    @example((np.array([[1, 1], [1, 0], [1, 1], [1, 1], [1, 0], [1, 1]], dtype=bool), (0, 5)),
             0.9, 10)
    # ... and equal jumps on two equally long axes.
    @example((np.array([[1, 1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1], [1, 1, 1, 1]], dtype=bool),
              (2, -1)), 0.9, 10)
    def test_same_boxes_in_same_order(self, mask, fill_ratio, max_box_size):
        tags, origin = mask
        assert cluster_tags(tags, fill_ratio, max_box_size, origin) == (
            _reference_cluster_tags(tags, fill_ratio, max_box_size, origin)
        )
