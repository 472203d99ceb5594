"""Parallel sweep runner: fan experiment grids out over worker processes.

Every figure/table of the paper is an independent sweep over
deterministic workflow configurations, so regenerating them is
embarrassingly parallel.  Each experiment module exposes a tiny sweep
protocol --

- ``grid()``    -- the ordered list of parameter dicts (one per point);
- ``run_point(params)`` -- compute one point (picklable result);
- ``merge(results)``    -- assemble grid-ordered point results into the
  object the module's existing ``render`` accepts;

-- and :func:`run_all` fans every selected experiment's points over a
``ProcessPoolExecutor`` with ``jobs`` workers.  Results are merged
**deterministically, ordered by grid index** (never by completion
order), so each experiment's rendered text is bit-identical to the
serial path: ``run_all(jobs=8)`` and ``run_all(jobs=1)`` return the same
outcome texts; only the merged cache hit/miss tallies differ.

Each worker has its own in-memory experiment cache
(:mod:`repro.experiments.cache`); points that need the same solver run
compute it once per worker, never across processes.

Observability: each completed point returns its worker's metrics dump
and profiler span dump; the parent folds them into an injected
:class:`~repro.observability.MetricsRegistry` via
:func:`~repro.observability.merge_worker_metrics` and an injected
:class:`~repro.observability.Profiler` via
:func:`~repro.observability.merge_worker_profiles` (both in grid order,
so aggregates are reproducible) and emits one ``sweep.point`` trace
event per point when a tracer is injected.

``python -m repro run-all [--jobs N] [--only fig6,fig9]`` is the CLI
face of this module; see ``docs/performance.md``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ExperimentError
from repro.experiments.cache import default_cache

__all__ = [
    "SWEEPS",
    "SweepOutcome",
    "SweepSpec",
    "expand_grid",
    "run_all",
]


@dataclass(frozen=True)
class SweepSpec:
    """One experiment's sweep protocol, resolved lazily by module path.

    Workers receive only ``(name, index, params)`` tasks -- strings,
    ints and plain dicts -- and look the spec up in :data:`SWEEPS`, so
    nothing unpicklable ever crosses the process boundary.
    """

    name: str
    module: str
    description: str

    def _mod(self):
        return import_module(self.module)

    def grid(self) -> list[dict]:
        """The ordered parameter grid (one dict per sweep point)."""
        return list(self._mod().grid())

    def run_point(self, params: Mapping[str, Any]) -> Any:
        """Compute one grid point (runs in a worker process)."""
        return self._mod().run_point(dict(params))

    def merge(self, results: Sequence[Any]) -> Any:
        """Assemble grid-ordered point results into the figure object."""
        return self._mod().merge(list(results))

    def render(self, merged: Any) -> str:
        """The module's existing text rendering of the merged result."""
        return self._mod().render(merged)

    def result(self) -> Any:
        """The merged figure, every grid point computed in this process."""
        return self.merge([self.run_point(params) for params in self.grid()])


#: Every experiment, in report order: the CLI's ``list``, ``all`` and
#: ``<id>`` read it, and ``run-all`` sweeps it.
SWEEPS: dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (
        SweepSpec("fig1", "repro.experiments.fig1_memory",
                  "peak-memory distribution, Polytropic Gas"),
        SweepSpec("fig4", "repro.experiments.fig4_timeline",
                  "placement decision timeline"),
        SweepSpec("fig5", "repro.experiments.fig5_app_layer",
                  "adaptive spatial resolution vs memory"),
        SweepSpec("fig6", "repro.experiments.fig6_entropy",
                  "entropy-based down-sampling fidelity"),
        SweepSpec("fig7", "repro.experiments.fig7_placement",
                  "end-to-end time: static vs adaptive placement"),
        SweepSpec("fig8", "repro.experiments.fig8_data_movement",
                  "data movement: in-transit vs adaptive"),
        SweepSpec("fig9", "repro.experiments.fig9_resource",
                  "adaptive staging allocation + Eq. 12"),
        SweepSpec("fig10", "repro.experiments.fig10_global",
                  "global cross-layer vs local adaptation"),
        SweepSpec("fig11", "repro.experiments.fig11_global_movement",
                  "data movement: global vs local"),
        SweepSpec("table2", "repro.experiments.table2_utilization",
                  "staging core usage histogram"),
        SweepSpec("ablations", "repro.experiments.ablations",
                  "design-choice sweeps"),
        SweepSpec("objectives", "repro.experiments.objectives",
                  "user-preference trade-off comparison"),
        SweepSpec("fig_triggers", "repro.experiments.fig_triggers",
                  "monitoring overhead vs adaptation lag across trigger "
                  "policies"),
        SweepSpec("fig_tenants", "repro.experiments.fig_tenants",
                  "multi-tenant contention across admission policies"),
    )
}


@dataclass(frozen=True)
class SweepOutcome:
    """One experiment's merged sweep result.

    ``seconds`` sums the per-point compute wall times (what the workers
    spent), which can exceed the sweep's wall-clock when points ran
    concurrently.
    """

    name: str
    description: str
    result: Any
    text: str
    points: int
    jobs: int
    seconds: float


def expand_grid(
    names: Sequence[str],
    grids: Mapping[str, Sequence[Mapping[str, Any]]] | None = None,
) -> list[tuple[str, int, dict]]:
    """The flat, ordered task list ``(experiment, grid index, params)``.

    ``grids`` overrides individual experiments' default grids (tests and
    the CI smoke job use small configurations); points must follow the
    order the experiment's ``merge`` expects.
    """
    tasks = []
    for name in names:
        spec = SWEEPS.get(name)
        if spec is None:
            known = ", ".join(SWEEPS)
            raise ExperimentError(f"unknown experiment {name!r} (known: {known})")
        points = grids.get(name) if grids is not None else None
        if points is None:
            points = spec.grid()
        tasks.extend((name, index, dict(params))
                     for index, params in enumerate(points))
    return tasks


#: The cache methods a grid point's profiler spans (:func:`_execute_point`).
_CACHE_SPANS = {"_value": "cache.lookup", "_trace": "cache.lookup",
                "_field": "cache.lookup", "_compute": "cache.compute"}


def _execute_point(
    name: str, params: Mapping[str, Any]
) -> tuple[Any, dict, dict, float]:
    """Run one grid point with private metrics + profiler attached.

    The point's metrics are the process-wide default cache's hits and
    misses during the point, and the profiler is wired onto its lookups
    for the duration of the point, so the returned dumps attribute cache
    traffic and wall time to exactly this point (workers ship them back
    to the parent).  The whole point runs under a ``sweep.point`` span,
    so cache lookups/computes nest beneath it.
    """
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.observer import instrument, publish
    from repro.observability.profiler import Profiler

    profiler = Profiler()
    cache = default_cache()
    hits, misses = cache.hits, cache.misses
    instrument(profiler, cache, _CACHE_SPANS)
    try:
        started = time.perf_counter()
        with profiler.span("sweep.point"):
            result = SWEEPS[name].run_point(params)
        seconds = time.perf_counter() - started
    finally:
        for attr in _CACHE_SPANS:
            delattr(cache, attr)
    registry = MetricsRegistry()
    publish(registry, lambda: {
        "experiments.cache_hits": cache.hits - hits,
        "experiments.cache_misses": cache.misses - misses,
    })
    return result, registry.dump(), profiler.dump(), seconds


def _worker_run(
    task: tuple[str, int, dict]
) -> tuple[str, int, Any, dict, dict, float, int]:
    """Pool entry point: compute one task, return it with provenance."""
    name, index, params = task
    result, dump, profile, seconds = _execute_point(name, params)
    return name, index, result, dump, profile, seconds, os.getpid()


def run_all(
    only: Iterable[str] | None = None,
    *,
    jobs: int = 1,
    metrics=None,
    tracer=None,
    profiler=None,
    grids: Mapping[str, Sequence[Mapping[str, Any]]] | None = None,
) -> list[SweepOutcome]:
    """Regenerate experiments, fanning grid points over ``jobs`` workers.

    Parameters
    ----------
    only:
        Experiment ids to run (default: every entry of :data:`SWEEPS`),
        reported in :data:`SWEEPS` order regardless of input order.
    jobs:
        Worker processes.  ``1`` (the default) runs every point in this
        process -- no pool, no pickling -- and is the reference output;
        any higher value must produce bit-identical outcome texts.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; worker
        dumps are folded in with
        :func:`~repro.observability.merge_worker_metrics` in grid order.
    tracer:
        Optional :class:`~repro.observability.Tracer`; one
        ``sweep.point`` event is emitted per completed point.
    profiler:
        Optional :class:`~repro.observability.Profiler`; every point's
        span dump (one ``sweep.point`` root with cache spans beneath) is
        folded in with
        :func:`~repro.observability.merge_worker_profiles` in grid
        order, yielding one deterministic aggregated profile no matter
        how many workers ran.
    grids:
        Per-experiment grid overrides (see :func:`expand_grid`).
    """
    from repro.observability.metrics import merge_worker_metrics
    from repro.observability.profiler import merge_worker_profiles

    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if only is None:
        names = list(SWEEPS)
    else:
        requested = set(only)
        unknown = sorted(requested - set(SWEEPS))
        if unknown:
            raise ExperimentError(
                f"unknown experiments {unknown} (known: {', '.join(SWEEPS)})"
            )
        names = [name for name in SWEEPS if name in requested]

    tasks = expand_grid(names, grids)
    if jobs == 1:
        completed = [
            (name, index, *_execute_point(name, params), os.getpid())
            for name, index, params in tasks
        ]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # ``map`` yields in submission order, so the aggregation
            # below is deterministic no matter which worker finishes
            # first; chunksize=1 keeps the pool load-balanced.
            completed = list(pool.map(_worker_run, tasks, chunksize=1))

    by_experiment: dict[str, list[Any]] = {name: [] for name in names}
    seconds: dict[str, float] = {name: 0.0 for name in names}
    for name, index, result, dump, profile, point_seconds, worker in completed:
        by_experiment[name].append((index, result))
        seconds[name] += point_seconds
        if metrics is not None:
            merge_worker_metrics(metrics, [dump])
        if profiler is not None:
            merge_worker_profiles(profiler, [profile])
        if tracer is not None:
            tracer.emit(
                "sweep.point",
                experiment=name,
                index=index,
                worker=worker,
                seconds=point_seconds,
            )

    outcomes = []
    for name in names:
        spec = SWEEPS[name]
        ordered = [result for _, result in sorted(by_experiment[name],
                                                  key=lambda item: item[0])]
        merged = spec.merge(ordered)
        outcomes.append(
            SweepOutcome(
                name=name,
                description=spec.description,
                result=merged,
                text=spec.render(merged),
                points=len(ordered),
                jobs=jobs,
                seconds=seconds[name],
            )
        )
    return outcomes
