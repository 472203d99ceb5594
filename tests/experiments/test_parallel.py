"""Tests for the parallel sweep runner (:mod:`repro.experiments.parallel`).

Two contracts matter:

- **Determinism.**  ``run_all(jobs=N)`` must render byte-identical text
  to ``run_all(jobs=1)`` -- results merge in grid order, never in
  completion order.
- **Observability.**  Worker metric dumps fold into the parent
  registry, and one ``sweep.point`` event fires per grid point.
"""

import sys
import types

import pytest

from repro.errors import ExperimentError
from repro.experiments.cache import reset_default_cache
from repro.experiments.parallel import (
    SWEEPS,
    SweepSpec,
    expand_grid,
    run_all,
)
from repro.observability.metrics import MetricsRegistry, merge_worker_metrics
from repro.observability.tracer import Tracer

#: Small grid overrides so sweep tests stay fast (runner overhead, not
#: solver cost, is under test).
SMALL_GRIDS = {
    "fig6": [{"n": 16, "nsteps": 4}],
    "fig9": [{"role": "static", "steps": 8}, {"role": "adaptive", "steps": 8}],
}


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch):
    """Each test gets a clean default cache."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    reset_default_cache()
    yield
    reset_default_cache()


class TestGrid:
    def test_every_spec_has_a_nonempty_grid(self):
        for name, spec in SWEEPS.items():
            grid = spec.grid()
            assert grid, name
            assert all(isinstance(point, dict) for point in grid)

    def test_expand_grid_orders_and_indexes(self):
        tasks = expand_grid(["fig6", "fig9"], SMALL_GRIDS)
        assert tasks == [
            ("fig6", 0, {"n": 16, "nsteps": 4}),
            ("fig9", 0, {"role": "static", "steps": 8}),
            ("fig9", 1, {"role": "adaptive", "steps": 8}),
        ]

    def test_expand_grid_rejects_unknown_experiment(self):
        with pytest.raises(ExperimentError, match="fig99"):
            expand_grid(["fig99"])

    def test_run_all_rejects_bad_jobs_and_names(self):
        with pytest.raises(ExperimentError, match="jobs"):
            run_all(["fig6"], jobs=0)
        with pytest.raises(ExperimentError, match="nope"):
            run_all(["nope"])


class TestSweepSpec:
    def test_every_module_binds_the_protocol(self):
        for name, spec in SWEEPS.items():
            module = spec._mod()
            for attr in ("grid", "run_point", "merge", "render"):
                assert callable(getattr(module, attr, None)), (name, attr)

    def test_result_merges_every_point_in_grid_order(self, monkeypatch):
        seen = []

        def run_point(params):
            seen.append(params["x"])
            return params["x"] * 10

        module = types.ModuleType("sweep_stub")
        module.grid = lambda: [{"x": 2}, {"x": 1}, {"x": 3}]
        module.run_point = run_point
        module.merge = lambda results: ("merged", results)
        monkeypatch.setitem(sys.modules, "sweep_stub", module)

        spec = SweepSpec("stub", "sweep_stub", "stub sweep")
        assert spec.result() == ("merged", [20, 10, 30])
        assert seen == [2, 1, 3]


class TestDeterminism:
    def test_parallel_output_is_byte_identical_to_serial(self):
        serial = run_all(["fig6", "fig9"], jobs=1, grids=SMALL_GRIDS)
        parallel = run_all(["fig6", "fig9"], jobs=4, grids=SMALL_GRIDS)
        assert [o.name for o in serial] == [o.name for o in parallel]
        assert all(o.text for o in serial)
        for a, b in zip(serial, parallel):
            assert a.text == b.text
            assert a.points == b.points
        assert all(o.jobs == 1 for o in serial)
        assert all(o.jobs == 4 for o in parallel)

    def test_selection_reports_in_sweep_order(self):
        # Input order must not leak into output order.
        outcomes = run_all(["fig9", "fig6"], jobs=1, grids=SMALL_GRIDS)
        assert [o.name for o in outcomes] == ["fig6", "fig9"]

    def test_sweep_point_events_and_metrics(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        outcomes = run_all(["fig9"], jobs=2, metrics=registry, tracer=tracer,
                           grids=SMALL_GRIDS)
        assert outcomes[0].points == 2
        points = [e for e in tracer.events() if e.kind == "sweep.point"]
        assert [e.fields["index"] for e in points] == [0, 1]
        assert all(e.fields["experiment"] == "fig9" for e in points)
        assert all(e.fields["seconds"] >= 0 for e in points)


class TestMetricsMerge:
    def test_counters_sum_and_gauges_take_last(self):
        worker_a = MetricsRegistry()
        worker_a.counter("experiments.cache_hits").inc(3)
        worker_a.gauge("staging.memory_used").set(10.0)
        worker_b = MetricsRegistry()
        worker_b.counter("experiments.cache_hits").inc(2)
        worker_b.gauge("staging.memory_used").set(4.0)
        parent = MetricsRegistry()
        merge_worker_metrics(parent, [worker_a.dump(), worker_b.dump()])
        assert parent.counter("experiments.cache_hits").value == 5
        assert parent.gauge("staging.memory_used").value == 4.0

    def test_timers_combine_tallies(self):
        worker_a = MetricsRegistry()
        worker_a.timer("staging.service_seconds").observe(2.0)
        worker_b = MetricsRegistry()
        worker_b.timer("staging.service_seconds").observe(4.0)
        worker_b.timer("staging.service_seconds").observe(4.0)
        parent = MetricsRegistry()
        merge_worker_metrics(parent, [worker_a.dump(), worker_b.dump()])
        timer = parent.timer("staging.service_seconds")
        assert timer.count == 3
        assert timer.total == 10.0
        # Count-weighted blend of the per-worker EMAs.
        assert timer.value == pytest.approx((1 * 2.0 + 2 * 4.0) / 3)

    def test_unknown_kind_rejected(self):
        from repro.errors import ObservabilityError

        with pytest.raises(ObservabilityError, match="unknown kind"):
            merge_worker_metrics(
                MetricsRegistry(), [{"m": {"kind": "histogram", "value": 1}}]
            )

    def test_dump_roundtrips_through_pickle(self):
        import pickle

        registry = MetricsRegistry()
        registry.counter("experiments.cache_misses").inc()
        registry.timer("staging.service_seconds").observe(1.5)
        dump = pickle.loads(pickle.dumps(registry.dump()))
        parent = MetricsRegistry()
        merge_worker_metrics(parent, [dump])
        assert parent.counter("experiments.cache_misses").value == 1
        assert parent.timer("staging.service_seconds").count == 1
