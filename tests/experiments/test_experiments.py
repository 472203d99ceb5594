"""Tests for the experiment modules (fast paths; full runs live in tests/paper)."""

import numpy as np
import pytest

from repro.core.actions import Placement
from repro.experiments import fig4_timeline
from repro.experiments.common import (
    PAPER,
    SCALES,
    ScaleConfig,
    advection_trace,
    default_hints,
    per_scale_sweep,
    render_table,
    single_point_sweep,
)


class TestScaleConfigs:
    def test_four_scales_match_paper(self):
        assert [s.sim_cores for s in SCALES] == [2048, 4096, 8192, 16384]
        # 16:1 staging ratio everywhere (Section 5.2.2).
        for scale in SCALES:
            assert scale.sim_cores / scale.staging_cores == 16
        # Step totals from Table 2.
        assert [s.steps for s in SCALES] == [27, 42, 49, 41]

    def test_grids_match_paper(self):
        assert SCALES[0].grid == (1024, 1024, 512)
        assert SCALES[3].grid == (2048, 2048, 1024)
        assert SCALES[1].base_cells == 1024**3

    def test_labels(self):
        assert [s.label for s in SCALES] == ["2K", "4K", "8K", "16K"]


class TestPerScaleSweep:
    def test_grid_indexes_every_scale_in_order(self):
        grid, _, _ = per_scale_sweep(lambda scale: scale)
        assert grid() == [{"scale": index} for index in range(len(SCALES))]

    def test_point_runs_the_row_at_its_scale(self):
        grid, run_point, _ = per_scale_sweep(lambda scale: scale.label)
        assert [run_point(params) for params in grid()] == ["2K", "4K", "8K", "16K"]

    def test_merge_is_the_rows_in_grid_order(self):
        _, _, merge = per_scale_sweep(lambda scale: scale)
        assert merge(("c", "a", "b")) == ["c", "a", "b"]


class TestSinglePointSweep:
    def test_grid_is_one_empty_point(self):
        grid, _, _ = single_point_sweep(lambda: "figure")
        assert grid() == [{}]

    def test_point_calls_run_with_the_point_params(self):
        calls = []

        def run(**params):
            calls.append(params)
            return "figure"

        grid, run_point, _ = single_point_sweep(run)
        assert [run_point(params) for params in grid()] == ["figure"]
        assert run_point({"n": 16}) == "figure"
        assert calls == [{}, {"n": 16}]

    def test_merge_returns_the_one_result(self):
        _, _, merge = single_point_sweep(lambda: None)
        result = object()
        assert merge([result]) is result

    @pytest.mark.parametrize("results", [[], ["a", "b"]], ids=["none", "two"])
    def test_merge_rejects_other_result_counts(self, results):
        _, _, merge = single_point_sweep(lambda: None)
        with pytest.raises(ValueError):
            merge(results)


class TestPaperConstants:
    def test_table2_totals_consistent(self):
        for case, row in PAPER.table2.items():
            total, *buckets = row
            assert sum(buckets) <= total  # some steps may run in-situ

    def test_reduction_tuples_have_four_scales(self):
        for tup in (
            PAPER.fig7_overhead_cut_vs_insitu,
            PAPER.fig7_overhead_cut_vs_intransit,
            PAPER.fig8_movement_cut,
            PAPER.fig10_overhead_cut_vs_local,
            PAPER.fig11_movement_cut_vs_local,
        ):
            assert len(tup) == 4

    def test_hints_match_fig5_phases(self):
        hints = default_hints()
        assert hints.factors_for_step(1) == (2, 4)
        assert hints.factors_for_step(30) == (2, 4, 8, 16)


class TestAdvectionTrace:
    def test_trace_shape(self):
        scale = SCALES[0]
        trace = advection_trace(scale)
        assert len(trace) == scale.steps
        assert trace.nranks == scale.sim_cores
        steps = [r.step for r in trace]
        assert steps == list(range(steps[0], steps[0] + len(steps)))

    def test_memoized(self):
        assert advection_trace(SCALES[0]) is advection_trace(SCALES[0])

    def test_workload_fits_titan_memory(self):
        from repro.hpc.systems import titan

        trace = advection_trace(SCALES[0])
        per_core = titan().memory_per_core
        for record in trace:
            assert record.peak_rank_bytes < per_core


class TestRenderTable:
    def test_alignment_and_title(self):
        out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_empty_rows(self):
        out = render_table(["x"], [])
        assert "x" in out


class TestFig4:
    def test_scripted_trace_shape(self):
        trace = fig4_timeline.scripted_trace()
        assert len(trace) == fig4_timeline.STEPS
        bursts = [r for r in trace if r.analysis_intensity > 1]
        assert [r.step for r in bursts] == list(fig4_timeline.BURST_STEPS)

    def test_run_reproduces_scenario(self):
        outcome = fig4_timeline.run_fig4()
        placements = [m.placement for m in outcome.result.steps]
        assert placements[0] is Placement.IN_TRANSIT
        assert Placement.IN_SITU in placements
        # Reasons were recorded for sampled decisions.
        assert outcome.reasons
        text = fig4_timeline.render(outcome)
        assert "PASS" in text


class TestFig9TraceCalibration:
    def test_polytropic_trace_growth(self):
        from repro.experiments.fig9_resource import polytropic_trace

        trace = polytropic_trace(steps=20)
        cells = np.array([r.cells for r in trace])
        assert cells[-5:].mean() > 1.5 * cells[:5].mean()
