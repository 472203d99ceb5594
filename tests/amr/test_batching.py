"""Tests for the level-wide solver paths (:mod:`repro.amr.godunov`).

``advance_boxes`` and ``_level_waves`` sweep a level's boxes through
cached pencil plans, split into chunks of at most ``_BATCH_CELLS``
pencil cells.  The sweep is a pure performance measure: every assertion
here demands *exact* agreement with the per-box scalar path, for any
chunk size, box shape mix and reconstruction order.
"""

import numpy as np
import pytest

from repro.amr import godunov
from repro.amr.box import Box
from repro.amr.godunov import PolytropicGasSolver, _sweep_plan
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.layout import BoxLayout
from repro.amr.level import LevelData, _shape_groups
from repro.amr.stepper import AMRStepper

#: Chunk caps to sweep with: one box per chunk, a few, the whole level.
CAPS = (1, 300, 1 << 30)


def gas_hierarchy(n=32, ndim=2, max_levels=1, max_box_size=8, periodic=True):
    domain = Box(tuple(0 for _ in range(ndim)), tuple(n - 1 for _ in range(ndim)))
    return AMRHierarchy(
        domain, ncomp=ndim + 2, nghost=2, max_levels=max_levels,
        max_box_size=max_box_size, dx0=1.0 / n, periodic=periodic,
    )


def blast_arrays(solver, shapes, seed=0):
    """Ghosted per-box conserved-state arrays with smooth random data."""
    rng = np.random.default_rng(seed)
    g = solver.nghost
    arrays = []
    for shape in shapes:
        ndim = len(shape)
        full = tuple(s + 2 * g for s in shape)
        U = np.zeros((ndim + 2, *full))
        U[0] = 1.0 + 0.3 * rng.random(full)  # rho
        for d in range(ndim):
            U[1 + d] = U[0] * 0.2 * (rng.random(full) - 0.5)
        kinetic = 0.5 * np.sum(U[1:-1] ** 2, axis=0) / U[0]
        U[-1] = (1.0 + 0.5 * rng.random(full)) / (solver.gamma - 1.0) + kinetic
        arrays.append(U)
    return arrays


def level_holding(arrays, nghost):
    """A ``LevelData`` whose box ``i`` holds ``arrays[i]``; boxes sit in a row along axis 0."""
    boxes, x = [], 0
    for arr in arrays:
        shape = [s - 2 * nghost for s in arr.shape[1:]]
        lo = (x, *[0] * (len(shape) - 1))
        boxes.append(Box(lo, tuple(l + s - 1 for l, s in zip(lo, shape))))
        x += shape[0]
    level = LevelData(BoxLayout(boxes), ncomp=arrays[0].shape[0], nghost=nghost)
    for view, arr in zip(level.data, arrays):
        view[...] = arr
    return level


def mixed_shapes(ndim):
    """Repeated and one-off shapes, with an extent-1 and an extent-2 box on every axis."""
    shapes = [(8,) * ndim] * 3 + [(4,) * ndim] * 2 + [(6, 3, 5)[:ndim]]
    for axis in range(ndim):
        for extent in (1, 2):
            shape = [3] * ndim
            shape[axis] = extent
            shapes.append(tuple(shape))
    return shapes


def ghost_columns(level):
    """Boolean mask of the buffer columns that hold ghost cells."""
    probe = LevelData(level.layout, ncomp=1, nghost=level.nghost)
    probe.buffer[...] = 1.0
    for i in range(len(probe.layout)):
        probe.valid_view(i)[...] = 0.0
    return probe.buffer[0] == 1.0


class TestHelpers:
    def test_shape_groups_preserve_order(self):
        arrays = [np.zeros(s) for s in [(4, 4), (8, 4), (4, 4), (8, 4), (2, 2)]]
        assert _shape_groups(arr.shape for arr in arrays) == [[0, 2], [1, 3], [4]]

    def test_sweep_chunks_split_by_cell_budget(self, monkeypatch):
        solver = PolytropicGasSolver()
        # Pencil cells per box along either axis: 4 * (4 + 4) = 32 for 4x4, 192 for 12x12.
        level = level_holding(blast_arrays(solver, [(4, 4)] * 5 + [(12, 12)]), solver.nghost)
        monkeypatch.setattr(godunov, "_BATCH_CELLS", 100)
        chunks = _sweep_plan(level)
        # Whole boxes in buffer order; a box larger than the budget is a chunk of one.
        assert [c.boxes.tolist() for c in chunks] == [[0, 1, 2], [3, 4], [5]]
        assert [c.starts.tolist() for c in chunks] == [[0, 16, 32], [0, 16], [0]]
        assert _sweep_plan(level) is chunks  # cached on the layout
        monkeypatch.setattr(godunov, "_BATCH_CELLS", 1 << 30)
        assert [c.boxes.tolist() for c in _sweep_plan(level)] == [list(range(6))]


class TestAdvanceBoxesEquivalence:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_matches_per_box_advance_exactly(self, ndim, monkeypatch):
        for order in (1, 2):
            solver = PolytropicGasSolver(order=order)
            for cap in CAPS:
                monkeypatch.setattr(godunov, "_BATCH_CELLS", cap)
                scalar = blast_arrays(solver, mixed_shapes(ndim), seed=order)
                level = level_holding(scalar, solver.nghost)
                ghosts = ghost_columns(level)
                before = level.buffer[:, ghosts].copy()
                solver.advance_boxes(level, dx=0.05, dt=0.004)
                for arr in scalar:
                    solver.advance(arr, dx=0.05, dt=0.004)
                for got, want in zip(level.data, scalar):
                    assert np.array_equal(got, want)
                assert np.array_equal(level.buffer[:, ghosts], before)

    def test_chunk_size_invariance(self, monkeypatch):
        solver = PolytropicGasSolver()
        shapes = [(8, 8)] * 9 + mixed_shapes(2)
        reference = level_holding(blast_arrays(solver, shapes, seed=1), solver.nghost)
        solver.advance_boxes(reference, dx=0.05, dt=0.004)
        for batch_cells in CAPS:
            monkeypatch.setattr(godunov, "_BATCH_CELLS", batch_cells)
            arrays = level_holding(blast_arrays(solver, shapes, seed=1), solver.nghost)
            solver.advance_boxes(arrays, dx=0.05, dt=0.004)
            assert np.array_equal(arrays.buffer, reference.buffer)


def per_box_waves(solver, level):
    """``sum_d max(|v_d|+c)`` box by box: the scalar reference."""
    want = []
    for i in range(len(level.layout)):
        rho, vel, p = solver.primitives(level.valid_view(i))
        c = np.sqrt(solver.gamma * p / rho)
        want.append(sum(float(np.max(np.abs(v) + c)) for v in vel))
    return want


class TestLevelWavesEquivalence:
    def _blast_level(self):
        h = gas_hierarchy(n=32, ndim=2, max_box_size=8)
        solver = PolytropicGasSolver()
        solver.initialize(h)
        return solver, h.levels[0]

    def test_matches_per_box_waves_exactly(self, monkeypatch):
        solver, spec = self._blast_level()
        assert len(spec.layout) > 1  # batching must actually engage
        assert solver._level_waves(spec.data) == per_box_waves(solver, spec.data)
        for ndim in (1, 2, 3):
            level = level_holding(blast_arrays(solver, mixed_shapes(ndim), seed=ndim),
                                  solver.nghost)
            want = per_box_waves(solver, level)
            for cap in CAPS:
                monkeypatch.setattr(godunov, "_BATCH_CELLS", cap)
                assert solver._level_waves(level) == want

    def test_stable_dt_chunk_size_invariance(self, monkeypatch):
        solver, spec = self._blast_level()
        reference = solver.stable_dt_level(spec, dx=1.0 / 32)
        for batch_cells in (1, 1 << 30):
            monkeypatch.setattr(godunov, "_BATCH_CELLS", batch_cells)
            assert solver.stable_dt_level(spec, dx=1.0 / 32) == reference


class TestExchangePlanCache:
    def test_plan_cached_on_layout(self):
        h = gas_hierarchy(n=32, ndim=2, max_box_size=8)
        data = h.levels[0].data
        domain = h.domain
        plan = data._exchange_plan(domain)
        assert data._exchange_plan(domain) is plan
        # A different periodicity key gets its own plan.
        assert data._exchange_plan(None) is not plan

    def test_exchange_still_fills_ghosts(self):
        h = gas_hierarchy(n=32, ndim=2, max_box_size=8)
        solver = PolytropicGasSolver()
        solver.initialize(h)
        data = h.levels[0].data
        moved_first = data.exchange(periodic_domain=h.domain)
        moved_again = data.exchange(periodic_domain=h.domain)
        assert moved_first > 0
        assert moved_again == moved_first


class TestSteppedRunEquivalence:
    def test_full_step_chunk_size_invariance(self, monkeypatch):
        def run(batch_cells):
            monkeypatch.setattr(godunov, "_BATCH_CELLS", batch_cells)
            h = gas_hierarchy(n=16, ndim=2, max_levels=2, max_box_size=8)
            solver = PolytropicGasSolver(tag_threshold=0.06)
            stepper = AMRStepper(h, solver, regrid_interval=2)
            stepper.run(4)
            dense = h.levels[0].data.to_dense(h.level_domain(0))
            return dense[0].copy()

        baseline = run(1 << 17)
        assert np.array_equal(run(1), baseline)
        assert np.array_equal(run(1 << 30), baseline)
