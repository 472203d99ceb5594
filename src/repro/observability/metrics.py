"""The metrics registry: counters, gauges and EMA timers.

The quantitative companion to the tracer: where the tracer answers *why*
(a decision's inputs and reasoning), the registry answers *how much* (how
many decisions, how many bytes, what the smoothed service time is).
Components keep their own plain tallies; when a run ends,
:func:`~repro.observability.observer.publish` writes them into the
registry the run was given, so a run without one counts nothing twice.

Instruments are created lazily by name (``registry.counter("x")``), are
idempotent (the same name returns the same instrument) and type-checked
(reusing a counter name as a gauge is an error, not silent aliasing).
:data:`METRIC_NAMES` registers every name the built-in instrumentation
publishes; ``docs/observability.md`` documents each and the
docs-consistency test keeps them in sync.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "EmaTimer",
    "Gauge",
    "METRIC_NAMES",
    "MetricsRegistry",
    "merge_worker_metrics",
]


#: Every metric name the built-in instrumentation publishes.
METRIC_NAMES: dict[str, str] = {
    "workflow.steps": "counter: simulation steps completed",
    "workflow.stall_seconds": "counter: seconds the simulation spent blocked",
    "monitor.samples": "counter: OperationalState snapshots assembled",
    "monitor.sim_step_seconds": "EMA timer: recent simulation step durations",
    "monitor.insitu_observations": "counter: completed in-situ analyses observed",
    "monitor.intransit_observations": "counter: completed in-transit analyses observed",
    "monitor.transfer_observations": "counter: completed staging transfers observed",
    "monitor.transfer_discards": "counter: transfer observations discarded as "
    "latency-saturated (seconds <= link latency)",
    "engine.decisions": "counter: adaptation decisions committed",
    "staging.jobs_submitted": "counter: analysis jobs submitted to staging",
    "staging.jobs_completed": "counter: analysis jobs drained by staging",
    "staging.bytes_ingested": "counter: bytes shipped into staging memory",
    "staging.service_seconds": "EMA timer: recent staging job service times",
    "staging.memory_used": "gauge: staging memory currently held by jobs",
    "staging.active_cores": "gauge: staging cores currently enabled",
    "experiments.cache_hits": "counter: experiment cache lookups served "
    "from memory",
    "experiments.cache_misses": "counter: experiment cache lookups that "
    "had to compute",
    "faults.injected": "counter: planned faults the injector applied",
    "staging.retries": "counter: staging ingest attempts retried with backoff",
    "placement.fallbacks": "counter: staging placements degraded to in-situ "
    "because staging was unreachable",
    "monitor.trigger_fires": "counter: trigger evaluations that requested "
    "a full adaptation",
    "monitor.samples_taken": "counter: full OperationalState snapshots "
    "assembled on a trigger-driven run",
    "monitor.sampling_budget_used": "counter: per-rank indicator probes "
    "spent by trigger policies (the percentile-sampling budget)",
    "kernel.events_processed": "counter: typed kernel events dispatched "
    "over a workflow run (the engine layer's always-on tally)",
    "service.tenants_admitted": "counter: tenant workflows admitted onto "
    "the shared machine",
    "service.tenants_rejected": "counter: tenant arrivals turned away "
    "(admission queue full)",
    "service.tenants_completed": "counter: admitted tenant workflows that "
    "finished",
    "service.queue_wait_seconds": "EMA timer: recent admission-queue "
    "waits of admitted tenants",
    "service.staging_committed_cores": "gauge: staging-pool cores "
    "currently granted to tenants",
    "service.grant_expansions": "counter: staging grants expanded by "
    "borrowing uncommitted pool cores",
    "service.grant_shrinks": "counter: staging grants shrunk back toward "
    "their admission base",
    "service.starvations": "counter: queued tenants whose wait crossed "
    "the starvation threshold",
}


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def set(self, value: float) -> None:
        self.value = float(value)


class EmaTimer:
    """An exponentially weighted moving average of observed durations.

    The same smoothing the Monitor's estimators use: the first
    observation seeds the average, later ones blend in with weight
    ``alpha``.  ``count`` and ``total`` keep the raw tallies.
    """

    __slots__ = ("alpha", "value", "count", "total")

    def __init__(self, alpha: float = 0.3) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ObservabilityError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.value = 0.0
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            raise ObservabilityError(f"duration must be >= 0, got {seconds}")
        if self.count == 0:
            self.value = float(seconds)
        else:
            self.value = (1 - self.alpha) * self.value + self.alpha * seconds
        self.count += 1
        self.total += seconds

    def fold(self, value: float, count: int, total: float) -> None:
        """Combine another timer's tallies into this one.

        ``count`` (> 0) and ``total`` add exactly; an empty timer takes
        ``value`` as is, otherwise the value becomes the count-weighted
        average (the interleaving is gone, so no exact EMA exists).
        """
        if self.count:
            value = (self.count * self.value + count * value) / (self.count + count)
        self.value = float(value)
        self.count += count
        self.total += total


class MetricsRegistry:
    """Named instruments, created lazily and shared by name."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | EmaTimer] = {}

    def _get(self, name: str, kind: type, *args: Any) -> Counter | Gauge | EmaTimer:
        """The instrument called ``name``, created as ``kind(*args)`` on
        first use; reusing a name as another kind is an error."""
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(*args)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise ObservabilityError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def timer(self, name: str, alpha: float = 0.3) -> EmaTimer:
        return self._get(name, EmaTimer, alpha)  # type: ignore[return-value]

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._instruments)

    def as_dict(self) -> dict[str, float]:
        """Current value of every instrument (EMA value for timers)."""
        return {name: self._instruments[name].value for name in self.names()}

    def dump(self) -> dict[str, dict[str, Any]]:
        """A picklable snapshot of every instrument, for cross-process merge.

        The parallel sweep runner ships one dump per completed grid
        point back to the parent, which folds them in with
        :func:`merge_worker_metrics`.
        """
        out: dict[str, dict[str, Any]] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out[name] = {"kind": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                out[name] = {"kind": "gauge", "value": instrument.value}
            else:
                out[name] = {
                    "kind": "timer",
                    "value": instrument.value,
                    "count": instrument.count,
                    "total": instrument.total,
                    "alpha": instrument.alpha,
                }
        return out

    def render(self) -> str:
        """A small fixed-width table of every instrument's value."""
        if not self._instruments:
            return "(no metrics recorded)"
        width = max(len(name) for name in self._instruments)
        lines = []
        for name in self.names():
            instrument = self._instruments[name]
            value = instrument.value
            text = f"{value:.6g}"
            if isinstance(instrument, EmaTimer):
                text += f" (n={instrument.count}, total={instrument.total:.6g})"
            lines.append(f"{name.ljust(width)}  {text}")
        return "\n".join(lines)


def merge_worker_metrics(
    parent: MetricsRegistry,
    dumps: Iterable[Mapping[str, Mapping[str, Any]]],
) -> MetricsRegistry:
    """Fold worker :meth:`MetricsRegistry.dump` snapshots into ``parent``.

    Counters sum, gauges take the last dump's value (the dumps arrive in
    grid order, so "last" is deterministic), and timers combine their raw
    tallies with :meth:`EmaTimer.fold`.  Returns ``parent`` for chaining.
    """
    for dump in dumps:
        for name, snap in dump.items():
            kind = snap.get("kind")
            if kind == "counter":
                parent.counter(name).inc(float(snap["value"]))
            elif kind == "gauge":
                parent.gauge(name).set(float(snap["value"]))
            elif kind == "timer":
                count = int(snap.get("count", 0))
                if count > 0:
                    parent.timer(name, float(snap.get("alpha", 0.3))).fold(
                        float(snap["value"]), count,
                        float(snap.get("total", 0.0)),
                    )
            else:
                raise ObservabilityError(
                    f"worker dump for metric {name!r} has unknown kind {kind!r}"
                )
    return parent
