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
    render_table,
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
        trace.validate()

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
