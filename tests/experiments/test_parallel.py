"""Tests for the parallel sweep runner (:mod:`repro.experiments.parallel`).

Three contracts matter:

- **Determinism.**  ``run_all(jobs=N)`` must render byte-identical text
  to ``run_all(jobs=1)`` -- results merge in grid order, never in
  completion order.
- **Cache safety.**  N processes hammering one ``REPRO_CACHE_DIR`` must
  produce exactly one artifact per key (no torn files, no duplicate
  computes once the first store lands) and leave no temp files behind.
- **Observability.**  Lock contention increments
  ``experiments.cache_lock_waits``, worker metric dumps fold into the
  parent registry, and one ``sweep.point`` event fires per grid point.
"""

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ExperimentError
from repro.experiments import cache as cache_mod
from repro.experiments.cache import ExperimentCache, reset_default_cache
from repro.experiments.parallel import (
    SWEEPS,
    expand_grid,
    run_all,
    sweep_names,
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
def isolated_cache(tmp_path, monkeypatch):
    """Each test gets a private disk cache and a clean default cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    reset_default_cache()
    yield
    reset_default_cache()


class TestGrid:
    def test_sweeps_cover_every_cli_experiment(self):
        from repro.__main__ import EXPERIMENTS

        assert sweep_names() == list(EXPERIMENTS)

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


# -- cross-process hammer ------------------------------------------------------

#: Observable side effect of one compute: a pid-stamped sentinel file.
_SENTINEL_DIR_ENV = "REPRO_TEST_SENTINEL_DIR"


def _hammer_compute():
    sentinel_dir = os.environ[_SENTINEL_DIR_ENV]
    with open(os.path.join(sentinel_dir, f"compute-{os.getpid()}"), "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(0.05)  # widen the stampede window
    return {"answer": 42}


def _hammer_worker(task):
    cache_dir, sentinel_dir = task
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ[_SENTINEL_DIR_ENV] = sentinel_dir
    cache_mod.set_code_salt("hammer-salt")
    cache = ExperimentCache()
    return cache.value("hammer", {"x": 1}, _hammer_compute)


class TestConcurrentCache:
    def test_hammer_one_cache_dir(self, tmp_path):
        """N processes, one key: one artifact, no torn or temp files."""
        cache_dir = tmp_path / "shared"
        sentinel_dir = tmp_path / "sentinels"
        cache_dir.mkdir()
        sentinel_dir.mkdir()
        tasks = [(str(cache_dir), str(sentinel_dir))] * 8
        with ProcessPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(_hammer_worker, tasks))
        assert results == [{"answer": 42}] * 8
        artifacts = list(cache_dir.glob("*.pkl"))
        assert len(artifacts) == 1
        assert not list(cache_dir.glob("*.tmp*"))
        # The per-key lock turns the stampede into one compute: only the
        # first lock holder runs _hammer_compute; everyone else adopts
        # its stored artifact.
        assert len(list(sentinel_dir.iterdir())) == 1

    def test_lock_wait_metric_increments(self, tmp_path):
        """A blocked acquisition counts experiments.cache_lock_waits."""
        cache_dir = tmp_path / "locks"
        registry = MetricsRegistry()
        cache = ExperimentCache(cache_dir=cache_dir, metrics=registry)
        key = cache.key("contended", x=1)
        waits = registry.counter("experiments.cache_lock_waits")
        results = []
        with cache._locked(cache_dir, key):
            worker = threading.Thread(
                target=lambda: results.append(
                    cache.value("contended", {"x": 1}, lambda: 7)
                )
            )
            worker.start()
            deadline = time.monotonic() + 10.0
            while waits.value < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert waits.value >= 1  # registered the wait while we hold it
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert results == [7]

    def test_worker_init_pins_salt_and_cache_dir(self, tmp_path, monkeypatch):
        from repro.experiments.parallel import _worker_init

        monkeypatch.setattr(cache_mod, "_CODE_SALT", None)
        _worker_init("pinned", str(tmp_path / "workers"))
        assert cache_mod._code_salt() == "pinned"
        assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path / "workers")


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
