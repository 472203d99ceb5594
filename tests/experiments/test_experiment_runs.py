"""Fast unit runs of the figure experiments at reduced sizes.

The full-size regenerations live in tests/paper/; these exercise the same
code paths with small parameters so the experiment modules stay covered
by ``pytest tests/``.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig1_memory,
    fig5_app_layer,
    fig6_entropy,
    fig9_resource,
)


class TestFig1Small:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1_memory.run_fig1(nsteps=12)

    def test_series_lengths(self, result):
        assert len(result.steps) == 12
        assert len(result.peak) == 12

    def test_ordering_invariant(self, result):
        assert (result.minimum <= result.median + 1e-9).all()
        assert (result.median <= result.p90 + 1e-9).all()
        assert (result.p90 <= result.peak + 1e-9).all()

    def test_render_contains_summary(self, result):
        text = fig1_memory.render(result)
        assert "peak memory growth" in text
        assert "imbalance" in text


class TestFig5Small:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5_app_layer.run_fig5(steps=16)

    def test_factors_from_hinted_sets(self, result):
        assert set(np.unique(result.factors)) <= {1, 2, 4, 8, 16}

    def test_adaptive_consumption_bounded(self, result):
        assert (result.consumption_min_res
                <= result.consumption_adaptive + 1e-9).all()
        assert (result.consumption_adaptive
                <= result.consumption_max_res + 1e-9).all()

    def test_render(self, result):
        assert "Fig. 5" in fig5_app_layer.render(result)


class TestFig6Small:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6_entropy.run_fig6(n=24, nsteps=6)

    def test_entropy_fields(self, result):
        assert result.entropies.min() >= 0.0
        assert result.entropies.max() > result.threshold > result.entropies.min()

    def test_fraction_and_savings_consistent(self, result):
        assert 0.0 <= result.reduced_fraction <= 1.0
        assert result.bytes_saved_fraction <= result.reduced_fraction

    def test_render_has_verdict(self, result):
        text = fig6_entropy.render(result)
        assert "claim check" in text


class TestFig9Small:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9_resource.run_fig9(steps=10)

    def test_static_series_constant(self, result):
        assert (result.static_series == fig9_resource.STAGING_CORES).all()

    def test_adaptive_within_bounds(self, result):
        series = result.adaptive_series
        assert series.min() >= 1
        assert series.max() <= fig9_resource.STAGING_CORES

    def test_utilization_ordering(self, result):
        assert (result.adaptive.utilization_efficiency
                > result.static.utilization_efficiency)

    def test_render(self, result):
        assert "Eq. 12" in fig9_resource.render(result)


class TestQueuedWorkDriftRegression:
    """At 4096 ranks with the paper's seed and no hints, the staging
    queue's running float sum of work drifts a few ULPs below zero.  The
    remaining-time estimate must still be non-negative, or the Monitor
    rejects the snapshot and the run aborts."""

    @pytest.mark.parametrize("mode", ["adaptive_application",
                                      "adaptive_resource"])
    def test_mode_completes_at_4k_scale(self, mode):
        from repro.experiments.common import SCALES, run_mode_at_scale
        from repro.workflow.config import Mode

        result = run_mode_at_scale(SCALES[1], Mode(mode))
        assert len(result.steps) == SCALES[1].steps
        assert result.end_to_end_seconds > 0
