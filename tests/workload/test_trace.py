"""Tests for the trace data model, capture, scaling and synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.godunov import PolytropicGasSolver
from repro.amr.hierarchy import AMRHierarchy
from repro.amr.stepper import AMRStepper
from repro.errors import TraceError
from repro.workload.capture import capture_trace
from repro.workload.memory import MemoryProfile, memory_profile_from_trace
from repro.workload.scale import scale_trace
from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace
from repro.workload.trace import StepRecord, WorkloadTrace


def assert_contiguous(trace):
    steps = [r.step for r in trace]
    assert steps == list(range(steps[0], steps[0] + len(steps)))


def record(step=1, nranks=4, bytes_per_rank=100.0):
    return StepRecord(
        step=step,
        sim_work=1000.0,
        cells=500,
        data_bytes=4000.0,
        memory_bytes=nranks * bytes_per_rank,
        rank_bytes=np.full(nranks, bytes_per_rank),
    )


class TestStepRecord:
    def test_peak_and_imbalance(self):
        r = StepRecord(1, 10.0, 10, 80.0, 300.0, np.array([100.0, 50.0, 150.0]))
        assert r.peak_rank_bytes == 150.0
        assert r.imbalance == pytest.approx(1.5)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(0.0, 1e12), min_size=1, max_size=300))
    def test_reductions_match_numpy_exactly(self, ranks):
        # Computed once at construction; the driver relies on these being
        # bit-equal to the per-step numpy reductions they replace.
        rank_bytes = np.array(ranks)
        r = StepRecord(1, 1.0, 10, 80.0, 100.0, rank_bytes)
        assert r.peak_rank_bytes == float(rank_bytes.max())
        assert r.total_rank_bytes == float(rank_bytes.sum())
        mean = rank_bytes.mean()
        assert r.imbalance == (
            float(rank_bytes.max() / mean) if mean > 0 else 1.0)
        if mean > 0:
            assert (r.peak_rank_bytes / r.total_rank_bytes
                    == float(rank_bytes.max() / rank_bytes.sum()))

    def test_negative_rejected(self):
        with pytest.raises(TraceError):
            StepRecord(1, -1.0, 10, 80.0, 100.0, np.ones(2))

    def test_empty_ranks_rejected(self):
        with pytest.raises(TraceError):
            StepRecord(1, 1.0, 10, 80.0, 100.0, np.array([]))


class TestWorkloadTrace:
    def test_totals(self):
        trace = WorkloadTrace("t", 3, 4, 8.0, [record(1), record(2)])
        assert trace.total_data_bytes == 8000.0
        assert len(trace) == 2

    def test_rank_count_validated(self):
        with pytest.raises(TraceError):
            WorkloadTrace("t", 3, 8, 8.0, [record(1, nranks=4)])

    def test_invalid_config(self):
        with pytest.raises(TraceError):
            WorkloadTrace("t", 5, 4, 8.0)
        with pytest.raises(TraceError):
            WorkloadTrace("t", 3, 0, 8.0)
        with pytest.raises(TraceError):
            WorkloadTrace("t", 3, 4, 0.0)

    def test_peak_memory_series(self):
        trace = WorkloadTrace("t", 3, 4, 8.0, [record(1, bytes_per_rank=10),
                                               record(2, bytes_per_rank=20)])
        np.testing.assert_allclose(trace.peak_memory_series(), [10.0, 20.0])


class TestCapture:
    @pytest.fixture(scope="class")
    def captured(self):
        h = AMRHierarchy(Box((0, 0), (31, 31)), ncomp=4, nghost=2,
                         max_levels=2, nranks=8, max_box_size=16, dx0=1 / 32)
        stepper = AMRStepper(h, PolytropicGasSolver(tag_threshold=0.05),
                             regrid_interval=2)
        return capture_trace(stepper, nsteps=8, name="gas")

    def test_length_and_contiguity(self, captured):
        assert len(captured) == 8
        assert_contiguous(captured)

    def test_rank_bytes_match_nranks(self, captured):
        assert captured.nranks == 8
        for rec in captured:
            assert rec.rank_bytes.size == 8

    def test_cells_positive_and_dynamic(self, captured):
        cells = [rec.cells for rec in captured]
        assert all(c > 0 for c in cells)
        assert len(set(cells)) > 1  # AMR: sizes change over time

    def test_data_bytes_consistent_with_cells(self, captured):
        for rec in captured:
            assert rec.data_bytes == pytest.approx(rec.cells * 8.0)

    def test_bad_nsteps(self, captured):
        h = AMRHierarchy(Box((0, 0), (15, 15)), ncomp=4, nghost=2, dx0=1 / 16)
        stepper = AMRStepper(h, PolytropicGasSolver(), regrid_interval=0)
        with pytest.raises(TraceError):
            capture_trace(stepper, 0)


class TestScale:
    def _base(self):
        cfg = SyntheticAMRConfig(steps=10, nranks=8, base_cells=1000.0, seed=3)
        return synthetic_amr_trace(cfg)

    def test_rank_count_changes(self):
        scaled = scale_trace(self._base(), nranks=64, seed=1)
        assert scaled.nranks == 64
        for rec in scaled:
            assert rec.rank_bytes.size == 64

    def test_totals_scale_with_cell_factor(self):
        base = self._base()
        scaled = scale_trace(base, nranks=8, cell_factor=4.0)
        assert scaled.total_data_bytes == pytest.approx(4 * base.total_data_bytes)
        assert sum(r.sim_work for r in scaled) == pytest.approx(
            4 * sum(r.sim_work for r in base))

    def test_rank_bytes_sum_preserved(self):
        base = self._base()
        scaled = scale_trace(base, nranks=32, cell_factor=2.0, seed=5)
        for b, s in zip(base, scaled):
            assert s.rank_bytes.sum() == pytest.approx(2.0 * b.rank_bytes.sum())

    def test_deterministic(self):
        base = self._base()
        a = scale_trace(base, nranks=16, seed=7)
        b = scale_trace(base, nranks=16, seed=7)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.rank_bytes, rb.rank_bytes)

    def test_imbalance_preserved_roughly(self):
        base = self._base()
        scaled = scale_trace(base, nranks=256, seed=2)
        # Scaled imbalance should be in the same regime (heavier tail is
        # expected with more ranks, but not collapse to uniform).
        assert scaled.steps[5].imbalance > 1.2

    def test_invalid_args(self):
        with pytest.raises(TraceError):
            scale_trace(self._base(), nranks=0)
        with pytest.raises(TraceError):
            scale_trace(self._base(), nranks=4, cell_factor=0)


class TestSynthetic:
    def test_deterministic_in_seed(self):
        cfg = SyntheticAMRConfig(steps=20, nranks=16, base_cells=1e5, seed=42)
        a = synthetic_amr_trace(cfg)
        b = synthetic_amr_trace(cfg)
        for ra, rb in zip(a, b):
            assert ra.cells == rb.cells
            np.testing.assert_array_equal(ra.rank_bytes, rb.rank_bytes)

    def test_growth_envelope(self):
        cfg = SyntheticAMRConfig(steps=40, nranks=4, base_cells=1e5,
                                 growth=2.0, burst_sigma=0.01, seed=0)
        trace = synthetic_amr_trace(cfg)
        early = np.mean([r.cells for r in trace.steps[:5]])
        late = np.mean([r.cells for r in trace.steps[-5:]])
        assert late > 2.0 * early

    def test_memory_imbalanced(self):
        cfg = SyntheticAMRConfig(steps=5, nranks=64, base_cells=1e5,
                                 imbalance_sigma=0.5, seed=1)
        trace = synthetic_amr_trace(cfg)
        assert trace.steps[0].imbalance > 1.5

    def test_validation(self):
        with pytest.raises(TraceError):
            SyntheticAMRConfig(steps=0, nranks=4, base_cells=1e5)
        with pytest.raises(TraceError):
            SyntheticAMRConfig(steps=5, nranks=4, base_cells=-1)
        with pytest.raises(TraceError):
            SyntheticAMRConfig(steps=5, nranks=4, base_cells=1e5, regrid_interval=0)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 60), st.integers(1, 32), st.integers(0, 1000))
    def test_records_always_valid(self, steps, nranks, seed):
        cfg = SyntheticAMRConfig(steps=steps, nranks=nranks, base_cells=1e4, seed=seed)
        trace = synthetic_amr_trace(cfg)
        assert_contiguous(trace)
        for rec in trace:
            assert rec.cells > 0
            assert rec.rank_bytes.sum() == pytest.approx(rec.memory_bytes, rel=1e-9)


class TestMemoryProfile:
    def test_availability(self):
        profile = MemoryProfile(capacity=100.0, sim_usage=np.array([20.0, 120.0]))
        assert profile.available(0) == 80.0
        assert profile.available(1) == 0.0
        np.testing.assert_allclose(profile.availability_series(), [80.0, 0.0])

    def test_validation(self):
        with pytest.raises(TraceError):
            MemoryProfile(capacity=0, sim_usage=np.ones(2))
        with pytest.raises(TraceError):
            MemoryProfile(capacity=1, sim_usage=np.array([-1.0]))
        with pytest.raises(TraceError):
            MemoryProfile(capacity=1, sim_usage=np.array([]))

    def test_from_trace_peak_rank(self):
        cfg = SyntheticAMRConfig(steps=6, nranks=8, base_cells=1e4, seed=0)
        trace = synthetic_amr_trace(cfg)
        profile = memory_profile_from_trace(trace, capacity=1e9)
        np.testing.assert_allclose(profile.sim_usage, trace.peak_memory_series())

    def test_from_trace_fixed_rank_and_scale(self):
        cfg = SyntheticAMRConfig(steps=6, nranks=8, base_cells=1e4, seed=0)
        trace = synthetic_amr_trace(cfg)
        profile = memory_profile_from_trace(trace, capacity=1e9, rank=3,
                                            usage_scale=2.0)
        expected = 2.0 * np.array([r.rank_bytes[3] for r in trace])
        np.testing.assert_allclose(profile.sim_usage, expected)

    def test_from_trace_validation(self):
        cfg = SyntheticAMRConfig(steps=3, nranks=4, base_cells=1e4)
        trace = synthetic_amr_trace(cfg)
        with pytest.raises(TraceError):
            memory_profile_from_trace(trace, capacity=1e9, rank=9)
        with pytest.raises(TraceError):
            memory_profile_from_trace(trace, capacity=1e9, usage_scale=0)
