"""Hierarchical span profiler: *where* wall-clock time goes, per layer.

The third observability pillar.  The tracer answers *why* (a decision's
inputs), the metrics registry answers *how much* (counts and smoothed
rates); the :class:`Profiler` answers *where* -- which layer of the
stack the host process actually spent its wall-clock seconds in.
``benchmarks/bench_profile.py`` fails when a guarded root span's cost,
relative to the rest of the quickstart replay, passes its ceiling.  The
renderers read a :meth:`Profiler.dump` (a run record's ``spans``
section).

Spans nest::

    profiler = Profiler()
    with profiler.span("workflow.run"):
        with profiler.span("engine.adapt"):
            ...

Each *span path* (slash-joined stack of names, e.g.
``workflow.run/sim.run/engine.adapt``) accumulates a call count, the
cumulative wall-clock seconds spent inside it, and its *self* seconds
(cumulative minus time attributed to child spans).  Wall-clock time is
read from ``time.perf_counter`` by default; an injected ``clock`` makes
tests deterministic.

The layers hold no span code.  The workflow driver, the multi-tenant
service and the sweep runner wire a profiler onto whole methods from
outside with :func:`~repro.observability.observer.instrument`; without
one nothing is wrapped, and -- because the profiler only ever *reads*
the wall clock -- simulated results are bit-identical with or without
one.

Spans must enclose only synchronous sections: a span held across a
simulator ``yield`` would charge other processes' interleaved work to
the wrong path.  Every span name the built-in instrumentation opens is
registered in :data:`PROFILE_SPANS`; ``docs/profiling.md`` documents
each and the docs-consistency suite keeps them in sync.

:func:`merge_worker_profiles` mirrors
:func:`~repro.observability.metrics.merge_worker_metrics`: the parallel
sweep runner ships one :meth:`Profiler.dump` per completed grid point
back to the parent, which folds them in grid order so ``run-all --jobs
N`` yields one aggregated profile with deterministic structure and
counts.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ObservabilityError

__all__ = [
    "PROFILE_SPANS",
    "Profiler",
    "SpanStat",
    "merge_worker_profiles",
    "render_hot_spans",
    "render_profile",
    "unregistered_spans",
]


#: Every span name the built-in instrumentation opens, with its layer
#: and meaning.  Span *paths* are slash-joined stacks of these names;
#: ``docs/profiling.md`` documents each and ``TestProfilingDocs`` keeps
#: the registry and the docs in sync.
PROFILE_SPANS: dict[str, str] = {
    "workflow.setup": "workflow layer: constructing the CoupledWorkflow "
    "(machine, staging area, monitor, engine)",
    "workflow.run": "workflow layer: one coupled run end to end "
    "(setup excluded, drain included)",
    "sim.run": "resource layer: the discrete-event kernel draining its "
    "event heap",
    "workflow.decide": "workflow layer: one step's adaptation decision "
    "section (trigger, snapshot and engine nest inside)",
    "monitor.snapshot": "middleware layer: the Monitor assembling one "
    "OperationalState snapshot",
    "monitor.trigger": "middleware layer: one trigger-policy evaluation "
    "over a step's cheap indicators",
    "engine.adapt": "middleware layer: the Adaptation Engine running the "
    "plan against one snapshot",
    "staging.submit": "middleware layer: admitting one analysis job into "
    "staging (memory accounting + ingest kickoff)",
    "staging.drain": "middleware layer: one staging job's completion "
    "bookkeeping (memory release, callbacks)",
    "cache.lookup": "experiment layer: one ExperimentCache request "
    "(memory and compute included)",
    "cache.compute": "experiment layer: a cache miss actually computing "
    "its artifact (nested under cache.lookup)",
    "sweep.point": "experiment layer: one sweep grid point computed by a "
    "worker",
    "workload.build": "application layer: synthesizing the workload "
    "trace the run replays",
}


class SpanStat:
    """Aggregate for one span path: calls, cumulative and self seconds."""

    __slots__ = ("count", "cum_seconds", "self_seconds")

    def __init__(self) -> None:
        self.count = 0
        self.cum_seconds = 0.0
        self.self_seconds = 0.0


class _Span:
    """One span handle; the context manager the profiler hands out.

    Enter/exit are the per-span hot path (the <5% overhead budget of
    ``bench_profile.py`` is spent here), so they do no aggregation at
    all: each appends a marker plus a clock reading to the profiler's
    flat event buffer -- the handle itself on enter, its name on exit
    -- and every read API replays the buffer into per-path aggregates
    first (:meth:`Profiler._flush`).  Measured in situ, the eager
    design's dict-and-stat updates were dominated by cache misses
    against the workload's own working set; the buffered design touches
    two cache lines (list tail and handle) per event.

    A handle is freely *reusable* --
    :func:`~repro.observability.observer.instrument` binds one per
    wrapped method (calling the handle on the method) and re-enters it
    on every call, skipping the per-call ``span()`` lookup and
    allocation.  Nesting, recursion, and sharing one handle across
    overlapping sections are all well-defined: the buffer records
    enter/exit *order*, which is what attribution replays.
    """

    __slots__ = ("name", "_append", "_clock")

    def __init__(self, profiler: "Profiler", name: str):
        self.name = name
        # Bound references, so enter/exit skip the profiler indirection.
        self._append = profiler._events.append
        self._clock = profiler.clock

    def __enter__(self) -> "_Span":
        ap = self._append
        ap(self)
        ap(self._clock())
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ap = self._append
        ap(self.name)
        ap(self._clock())
        return False

    def __call__(self, func: Callable) -> Callable:
        """``func`` wrapped so that every call runs inside this span.

        The wrapper takes ``func``'s own parameters and appends the
        enter/exit records inline: forwarding ``*args, **kwargs`` or
        entering a ``with`` block each cost about as much again per call
        (``docs/profiling.md`` has the measurements).
        """
        target = getattr(func, "__func__", func)
        spanned = _wrapper_factory(func)(
            func, self._append, self._clock, self, self.name
        )
        spanned.__defaults__ = target.__defaults__
        spanned.__kwdefaults__ = target.__kwdefaults__
        return spanned


#: Compiled wrapper factories, keyed by (code object, bound method?).
_FACTORIES: dict[tuple[Any, bool], Callable] = {}


def _wrapper_factory(func: Callable) -> Callable:
    """The factory of span wrappers with ``func``'s parameter list,
    compiled once per code object (defaults are copied on afterwards).
    Its own names start with ``__``, which the compiler mangles out of
    every method's parameter names, so the two cannot clash."""
    target = getattr(func, "__func__", func)
    key = (target.__code__, target is not func)
    factory = _FACTORIES.get(key)
    if factory is None:
        params = [
            p.replace(default=p.empty, annotation=p.empty)
            for p in inspect.signature(func).parameters.values()
        ]
        args = ", ".join(
            f"*{p.name}" if p.kind is p.VAR_POSITIONAL
            else f"**{p.name}" if p.kind is p.VAR_KEYWORD
            else f"{p.name}={p.name}" if p.kind is p.KEYWORD_ONLY
            else p.name
            for p in params
        )
        source = (
            "def factory(__func, __append, __clock, __span, __name):\n"
            f"    def spanned{inspect.Signature(params)}:\n"
            "        __append(__span)\n"
            "        __append(__clock())\n"
            "        try:\n"
            f"            return __func({args})\n"
            "        finally:\n"
            "            __append(__name)\n"
            "            __append(__clock())\n"
            "    return spanned\n"
        )
        namespace: dict[str, Any] = {}
        exec(source, namespace)
        factory = _FACTORIES[key] = namespace["factory"]
    return factory


class Profiler:
    """Nested wall-clock span accounting, keyed by slash-joined path.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonic seconds.  Defaults to
        ``time.perf_counter`` -- *wall* clock, deliberately distinct
        from the tracer's simulated clock: the profiler measures what
        the host process costs, not what the simulated machine does.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # Flat enter/exit event buffer: (marker, seconds) pairs, where a
        # _Span marker is an enter and a str marker (the name) an exit.
        # Never replaced, only .clear()ed: handles cache its bound
        # ``append`` (likewise ``clock`` -- swap neither after init).
        # Grows ~100 bytes per recorded span between reads; ``span()``
        # acquisitions and every read API drain it, and re-entered
        # cached handles keep enter/exit themselves check-free.
        self._events: list = []
        # Drain the buffer on ``span()`` once it holds this many entries.
        self._flush_at = 1 << 17
        # Replay stack of open-span frames, persisted across flushes:
        # [path, SpanStat, started, child_seconds, name].
        self._frames: list[list] = []
        self._stats: dict[str, SpanStat] = {}
        # parent path -> name -> (path, SpanStat): the replay fast path.
        self._resolve: dict[str, dict[str, tuple[str, SpanStat]]] = {}

    # -- recording ---------------------------------------------------------

    def span(self, name: str) -> _Span:
        """A context manager charging its wall time to ``name`` under the
        currently open span (if any).

        The handle may be cached and re-entered freely (see
        :class:`_Span`).
        """
        if not name or "/" in name:
            raise ObservabilityError(
                f"span name must be a non-empty path segment, got {name!r}"
            )
        if len(self._events) >= self._flush_at:
            self._flush()
        return _Span(self, name)

    def _flush(self) -> None:
        """Replay buffered enter/exit events into per-path aggregates.

        Safe to run with spans still open: their frames stay on the
        replay stack (start time included) until the matching exit
        arrives in a later flush.  Raises
        :class:`~repro.errors.ObservabilityError` on an exit that does
        not match the innermost open span -- a span was held across a
        simulator yield, or ``__exit__`` ran twice.
        """
        events = self._events
        if not events:
            return
        frames = self._frames
        resolve = self._resolve
        for i in range(0, len(events), 2):
            marker = events[i]
            seconds = events[i + 1]
            if marker.__class__ is str:
                # Exit: pop the innermost frame and attribute its time.
                if not frames or frames[-1][4] != marker:
                    open_path = frames[-1][0] if frames else "<none>"
                    raise ObservabilityError(
                        f"span {marker!r} closed out of order (innermost "
                        f"open span is {open_path!r}: a span was held "
                        "across a simulator yield, or __exit__ ran twice)"
                    )
                path, stat, started, child_seconds, _ = frames.pop()
                elapsed = seconds - started
                stat.count += 1
                stat.cum_seconds += elapsed
                stat.self_seconds += elapsed - child_seconds
                if frames:
                    frames[-1][3] += elapsed
            else:
                # Enter: resolve (path, stat) under the open frame.
                name = marker.name
                parent_path = frames[-1][0] if frames else ""
                try:
                    path, stat = resolve[parent_path][name]
                except KeyError:
                    path = f"{parent_path}/{name}" if parent_path else name
                    stat = self._stats.get(path)
                    if stat is None:
                        stat = self._stats[path] = SpanStat()
                    resolve.setdefault(parent_path, {})[name] = (path, stat)
                frames.append([path, stat, seconds, 0.0, name])
        events.clear()

    # -- reading -----------------------------------------------------------

    def get(self, path: str) -> SpanStat | None:
        """The aggregate for ``path``, or ``None`` if never recorded."""
        self._flush()
        return self._stats.get(path)

    def total_seconds(self) -> float:
        """Cumulative seconds across root spans (the attributed total)."""
        self._flush()
        return sum(
            stat.cum_seconds
            for path, stat in self._stats.items()
            if "/" not in path
        )

    def dump(self) -> dict[str, dict[str, Any]]:
        """A picklable ``path -> {count, cum_seconds, self_seconds}`` map.

        The cross-process wire format: workers ship dumps back to the
        sweep parent (:func:`merge_worker_profiles`), the run record
        embeds one as its ``spans`` section, and the renderers
        and the budget check read it.
        """
        self._flush()
        return {
            path: {
                "count": stat.count,
                "cum_seconds": stat.cum_seconds,
                "self_seconds": stat.self_seconds,
            }
            for path, stat in sorted(self._stats.items())
            if stat.count
        }


def merge_worker_profiles(
    parent: Profiler,
    dumps: Iterable[Mapping[str, Mapping[str, Any]]],
) -> Profiler:
    """Fold worker :meth:`Profiler.dump` snapshots into ``parent``.

    Counts and seconds sum exactly per span path, so -- unlike the EMA
    timers of :func:`~repro.observability.metrics.merge_worker_metrics`
    -- the merged profile is independent of dump order; the sweep runner
    still folds in grid order for symmetry.  Returns ``parent``.
    """
    parent._flush()
    for dump in dumps:
        for path, snap in dump.items():
            if not path:
                raise ObservabilityError("worker profile dump has an empty span path")
            try:
                count = int(snap["count"])
                cum = float(snap["cum_seconds"])
                self_seconds = float(snap["self_seconds"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ObservabilityError(
                    f"worker profile dump for span {path!r} is malformed: {exc}"
                ) from exc
            stat = parent._stats.get(path)
            if stat is None:
                stat = parent._stats[path] = SpanStat()
            stat.count += count
            stat.cum_seconds += cum
            stat.self_seconds += self_seconds
    return parent


def unregistered_spans(dump: Mapping[str, Mapping[str, Any]]) -> list[str]:
    """Span *names* in a :meth:`Profiler.dump` that :data:`PROFILE_SPANS`
    does not register (the honesty check the docs-consistency suite
    runs)."""
    names = {path.rsplit("/", 1)[-1] for path in dump}
    return sorted(names - set(PROFILE_SPANS))


def render_profile(
    dump: Mapping[str, Mapping[str, Any]],
    total_seconds: float | None = None,
) -> str:
    """Top-down tree of a :meth:`Profiler.dump` (or a run record's
    ``spans``): one row per span path, children indented under their
    parent, ordered hottest (cumulative) first.

    ``total_seconds`` sets the denominator of the ``cum%`` column --
    pass the measured wall time of the profiled section to see how much
    of it the spans attribute; it defaults to the root spans' cumulative
    total (making the roots sum to 100%).
    """
    if not dump:
        return "(no spans recorded)"
    roots = [p for p in dump if "/" not in p]
    if total_seconds is None:
        total_seconds = sum(dump[p]["cum_seconds"] for p in roots)
    children: dict[str, list[str]] = {}
    for path in dump:
        if "/" in path:
            parent = path.rsplit("/", 1)[0]
            children.setdefault(parent, []).append(path)

    rows: list[tuple[str, dict]] = []

    def walk(paths: list[str], depth: int) -> None:
        ordered = sorted(
            paths, key=lambda p: (-dump[p]["cum_seconds"], p)
        )
        for path in ordered:
            label = "  " * depth + path.rsplit("/", 1)[-1]
            rows.append((label, dump[path]))
            walk(children.get(path, []), depth + 1)

    walk(roots, 0)

    headers = ["span", "count", "cum (s)", "self (s)", "cum%"]
    cells = [
        [
            label,
            str(snap["count"]),
            f"{snap['cum_seconds']:.4f}",
            f"{snap['self_seconds']:.4f}",
            (
                f"{100.0 * snap['cum_seconds'] / total_seconds:.1f}"
                if total_seconds > 0
                else "-"
            ),
        ]
        for label, snap in rows
    ]
    widths = [
        max(len(h), max(len(row[i]) for row in cells))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(
            h.ljust(w) if i == 0 else h.rjust(w)
            for i, (h, w) in enumerate(zip(headers, widths))
        ),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append(
            "  ".join(
                c.ljust(w) if i == 0 else c.rjust(w)
                for i, (c, w) in enumerate(zip(row, widths))
            )
        )
    return "\n".join(lines)


def render_hot_spans(
    dump: Mapping[str, Mapping[str, Any]], top: int = 10
) -> str:
    """The top-N hot list of a span dump: paths ordered by *self* seconds.

    Self time is where optimization effort actually lands -- a parent
    whose cumulative time is all children is not itself hot.
    """
    if not dump:
        return "(no spans recorded)"
    if top < 1:
        raise ObservabilityError(f"top must be >= 1, got {top}")
    total_self = sum(snap["self_seconds"] for snap in dump.values())
    ordered = sorted(
        dump.items(), key=lambda item: (-item[1]["self_seconds"], item[0])
    )[:top]
    headers = ["#", "self (s)", "self%", "count", "span path"]
    cells = [
        [
            str(rank),
            f"{snap['self_seconds']:.4f}",
            (
                f"{100.0 * snap['self_seconds'] / total_self:.1f}"
                if total_self > 0
                else "-"
            ),
            str(snap["count"]),
            path,
        ]
        for rank, (path, snap) in enumerate(ordered, start=1)
    ]
    widths = [
        max(len(h), max(len(row[i]) for row in cells))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.rjust(w) if i < 4 else h.ljust(w)
                  for i, (h, w) in enumerate(zip(headers, widths))),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append(
            "  ".join(c.rjust(w) if i < 4 else c.ljust(w)
                      for i, (c, w) in enumerate(zip(row, widths)))
        )
    return "\n".join(lines)
