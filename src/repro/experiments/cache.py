"""Memoized simulation sessions for the experiment hot path.

Several experiments re-run the same deterministic solver configurations:
the Figure 1/5 memory studies and the captured-trace sweep all capture
the same Polytropic Gas run (at 50, 40 and 30 steps), and the Figure 6
entropy study shares its density field with two ablation sweeps.  The
:class:`ExperimentCache` removes that redundancy without changing a
single output bit:

- **Prefix reuse.**  A captured trace of ``k`` steps is, by determinism,
  exactly the first ``k`` records of a longer capture from the same
  configuration, so shorter requests are served by slicing.
- **Stepper extension.**  :class:`~repro.amr.stepper.AMRStepper.run`
  continues the step counter, so a session keeps the live stepper and
  advances it *forward* for longer requests instead of re-running from
  step zero.  A session whose stepper has already passed the requested
  step recomputes from scratch (state cannot be rewound).

Set ``REPRO_NO_CACHE=1`` (or ``true`` / ``yes``, case-insensitive) to
bypass the cache entirely; every request then computes exactly as the
un-cached experiments always did.  ``""``, ``0``, ``false`` and ``no``
keep it enabled; any other value warns once and keeps the cache on
(bypassing is the *exceptional* state and must be asked for
unambiguously).  Lookups count into :attr:`ExperimentCache.hits` /
:attr:`ExperimentCache.misses`; the sweep runner publishes each grid
point's share of them as ``experiments.cache_hits`` /
``experiments.cache_misses``, and wraps the ``_value`` / ``_trace`` /
``_field`` lookups in ``cache.lookup`` spans and ``_compute`` in
``cache.compute`` from outside
(:func:`~repro.observability.observer.instrument`).

The cache lives in one process.  Nothing is written to disk, so a
figure is always computed by the code that prints it.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Any, Callable

import numpy as np

from repro.workload.capture import capture_trace
from repro.workload.trace import WorkloadTrace

__all__ = [
    "ExperimentCache",
    "cache_enabled",
    "default_cache",
    "reset_default_cache",
]

#: Distinguishes "not cached" from a legitimately cached ``None`` artifact.
_MISS = object()

#: ``REPRO_NO_CACHE`` values that disable / keep the cache, after
#: stripping and lower-casing.  Anything else warns once per value.
_NO_CACHE_TRUE = ("1", "true", "yes")
_NO_CACHE_FALSE = ("", "0", "false", "no")

_WARNED_NO_CACHE_VALUES: set[str] = set()


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` asks for plain recomputation.

    Only ``1`` / ``true`` / ``yes`` (case-insensitive, stripped)
    disable the cache; ``""`` / ``0`` / ``false`` / ``no`` keep it
    enabled.  Unrecognized values warn once and keep the cache enabled
    rather than silently bypassing it.
    """
    raw = os.environ.get("REPRO_NO_CACHE", "")
    value = raw.strip().lower()
    if value in _NO_CACHE_TRUE:
        return False
    if value in _NO_CACHE_FALSE:
        return True
    if raw not in _WARNED_NO_CACHE_VALUES:
        _WARNED_NO_CACHE_VALUES.add(raw)
        warnings.warn(
            f"unrecognized REPRO_NO_CACHE value {raw!r}; the cache stays "
            "enabled (set REPRO_NO_CACHE=1 to bypass it)",
            RuntimeWarning,
            stacklevel=2,
        )
    return True


class _TraceSession:
    """One solver configuration's captured records, grown incrementally."""

    def __init__(self, build: Callable[[], Any], name: str):
        self.build = build
        self.name = name
        self.stepper = None
        self.records: list = []
        self.meta: tuple[int, int, float] | None = None  # ndim, nranks, b/cell

    def prefix(self, nsteps: int) -> WorkloadTrace:
        ndim, nranks, bpc = self.meta
        return WorkloadTrace(
            name=self.name,
            ndim=ndim,
            nranks=nranks,
            bytes_per_cell=bpc,
            steps=list(self.records[:nsteps]),
        )

    def extend_to(self, nsteps: int) -> WorkloadTrace:
        if self.stepper is None:
            self.stepper = self.build()
        captured = capture_trace(
            self.stepper, nsteps - len(self.records), name=self.name
        )
        self.records.extend(captured.steps)
        self.meta = (captured.ndim, captured.nranks, captured.bytes_per_cell)
        return self.prefix(nsteps)


class _FieldSession:
    """One solver configuration's live stepper plus extracted fields."""

    def __init__(self, build: Callable[[], Any], extract: Callable[[Any], np.ndarray]):
        self.build = build
        self.extract = extract
        self.stepper = None
        self.steps_done = 0
        self.fields: dict[int, np.ndarray] = {}

    def advance_to(self, nsteps: int) -> np.ndarray:
        if self.stepper is None or self.steps_done > nsteps:
            self.stepper = self.build()
            self.steps_done = 0
        if nsteps > self.steps_done:
            self.stepper.run(nsteps - self.steps_done)
            self.steps_done = nsteps
        return self.extract(self.stepper)


class ExperimentCache:
    """Parameter-keyed, in-process memo for deterministic experiment inputs.

    Sessions hold live steppers for prefix/extension reuse.  All public
    entry points honour ``REPRO_NO_CACHE=1`` by delegating straight to
    the compute path.
    """

    def __init__(self):
        #: Lookups served from memory / that had to compute.
        self.hits = 0
        self.misses = 0
        self._values: dict[str, Any] = {}
        self._sessions: dict[str, Any] = {}

    # -- plumbing ----------------------------------------------------------

    def _compute(self, fn: Callable[[], Any]) -> Any:
        """Run one artifact compute (the sweep runner's ``cache.compute``
        span, nested under ``cache.lookup`` on the cache-enabled path)."""
        return fn()

    def key(self, kind: str, **params) -> str:
        """Canonical JSON of (kind, params); params must be JSON-native."""
        return json.dumps({"kind": kind, "params": params}, sort_keys=True)

    # -- entry points ------------------------------------------------------

    def value(self, kind: str, params: dict, compute: Callable[[], Any]) -> Any:
        """Generic memo for a deterministic, parameter-keyed computation."""
        if not cache_enabled():
            return self._compute(compute)
        return self._value(kind, params, compute)

    def _value(self, kind: str, params: dict, compute: Callable[[], Any]) -> Any:
        key = self.key(kind, **params)
        cached = self._values.get(key, _MISS)
        if cached is not _MISS:
            self.hits += 1
            return cached
        self.misses += 1
        result = self._values[key] = self._compute(compute)
        return result

    def trace(
        self,
        kind: str,
        params: dict,
        nsteps: int,
        build: Callable[[], Any],
        name: str,
    ) -> WorkloadTrace:
        """A captured trace, served from prefixes / stepper extension.

        ``build`` constructs the (deterministic) stepper; ``nsteps`` of
        capture are returned.  One session per (kind, params) holds the
        longest capture so far; shorter requests slice it, longer ones
        advance the live stepper forward.
        """
        if not cache_enabled():
            return self._compute(lambda: capture_trace(build(), nsteps, name=name))
        return self._trace(kind, params, nsteps, build, name)

    def _trace(
        self,
        kind: str,
        params: dict,
        nsteps: int,
        build: Callable[[], Any],
        name: str,
    ) -> WorkloadTrace:
        skey = self.key(kind, **params)
        session = self._sessions.get(skey)
        if session is None:
            session = self._sessions[skey] = _TraceSession(build, name)
        if len(session.records) >= nsteps:
            self.hits += 1
            return session.prefix(nsteps)
        self.misses += 1
        return self._compute(lambda: session.extend_to(nsteps))

    def field(
        self,
        kind: str,
        params: dict,
        nsteps: int,
        build: Callable[[], Any],
        extract: Callable[[Any], np.ndarray],
    ) -> np.ndarray:
        """A dense field extracted after ``nsteps``, with stepper reuse.

        Returns a private copy, so callers may mutate the result freely.
        """
        if not cache_enabled():
            def _fresh() -> np.ndarray:
                stepper = build()
                stepper.run(nsteps)
                return extract(stepper)
            return self._compute(_fresh)
        return self._field(kind, params, nsteps, build, extract)

    def _field(
        self,
        kind: str,
        params: dict,
        nsteps: int,
        build: Callable[[], Any],
        extract: Callable[[Any], np.ndarray],
    ) -> np.ndarray:
        skey = self.key(kind, **params)
        session = self._sessions.get(skey)
        if session is None:
            session = self._sessions[skey] = _FieldSession(build, extract)
        if nsteps in session.fields:
            self.hits += 1
            return session.fields[nsteps].copy()
        self.misses += 1
        field = self._compute(lambda: session.advance_to(nsteps))
        session.fields[nsteps] = field
        return field.copy()


_DEFAULT: ExperimentCache | None = None


def default_cache() -> ExperimentCache:
    """The process-wide cache the experiments share."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ExperimentCache()
    return _DEFAULT


def reset_default_cache() -> None:
    """Drop the shared cache (tests use this to isolate sessions)."""
    global _DEFAULT
    _DEFAULT = None
