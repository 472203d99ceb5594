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
- **Content-addressed disk artifacts.**  With ``REPRO_CACHE_DIR`` set,
  finished artifacts are pickled under a key hashing the experiment
  kind, its parameters, :data:`CACHE_VERSION` and the current git
  revision, so stale artifacts from other code states can never be
  served.

Set ``REPRO_NO_CACHE=1`` (or ``true`` / ``yes``, case-insensitive) to
bypass the cache entirely; every request then computes exactly as the
un-cached experiments always did.  ``""``, ``0``, ``false`` and ``no``
keep it enabled; any other value warns once and keeps the cache on
(bypassing is the *exceptional* state and must be asked for
unambiguously).  The cache publishes through its
:class:`~repro.observability.observer.Observer` (built from the
``metrics=`` / ``profiler=`` keywords; the sweep runner swaps in a
per-point one): lookups count ``experiments.cache_hits`` /
``experiments.cache_misses``, failed disk stores
``experiments.cache_store_failures``, and contended per-key file locks
``experiments.cache_lock_waits``; every lookup runs under a
``cache.lookup`` span with actual artifact computes nested under
``cache.compute``.

The disk layer is safe for concurrent writers: artifacts are written
via ``os.replace`` (never torn), and the miss path holds a per-key
advisory file lock (``<key>.lock`` under the cache dir) so N workers
asking for the same artifact compute it once instead of stampeding.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

try:  # POSIX advisory locks; on platforms without fcntl the cache
    import fcntl  # degrades to lock-free (correct, stampede-prone).
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

import numpy as np

from repro.observability.observer import Observer
from repro.workload.capture import capture_trace
from repro.workload.trace import WorkloadTrace

__all__ = [
    "CACHE_VERSION",
    "ExperimentCache",
    "cache_enabled",
    "default_cache",
    "reset_default_cache",
    "set_code_salt",
]

#: Bump when a cached artifact's meaning changes (invalidates disk keys).
CACHE_VERSION = 1

#: Distinguishes "not cached" from a legitimately cached ``None`` artifact
#: in both the in-memory dict and the disk layer.
_MISS = object()

#: One warning per process when the disk layer cannot store artifacts.
_STORE_FAILURE_WARNED = False

_CODE_SALT: str | None = None


def _code_salt() -> str:
    """The current git revision, or ``"nogit"`` outside a repository.

    Folded into every cache key so on-disk artifacts written by one code
    state are never served to another.
    """
    global _CODE_SALT
    if _CODE_SALT is None:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=10,
            )
            rev = proc.stdout.strip()
            _CODE_SALT = rev if proc.returncode == 0 and rev else "nogit"
        except (OSError, subprocess.SubprocessError):
            _CODE_SALT = "nogit"
    return _CODE_SALT


def set_code_salt(salt: str) -> None:
    """Pin the code salt instead of deriving it from ``git rev-parse``.

    The parallel sweep runner resolves the salt once in the parent and
    seeds every worker with it, so a pool of N workers does not spawn N
    git subprocesses (and workers spawned outside the repository still
    key artifacts consistently with their parent).
    """
    global _CODE_SALT
    _CODE_SALT = str(salt)


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

    def adopt(self, trace: WorkloadTrace) -> None:
        """Seed from a disk artifact (records only; no live stepper)."""
        self.records = list(trace.steps)
        self.meta = (trace.ndim, trace.nranks, trace.bytes_per_cell)

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
            # Either a fresh session or one adopted from disk; a disk
            # prefix cannot be extended without solver state, so restart.
            self.stepper = self.build()
            self.records = []
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
    """Parameter-keyed memo for deterministic experiment inputs.

    In-process sessions hold live steppers (for prefix/extension reuse);
    the optional on-disk layer under ``REPRO_CACHE_DIR`` persists
    finished artifacts across processes.  All public entry points honour
    ``REPRO_NO_CACHE=1`` by delegating straight to the compute path.
    """

    def __init__(self, cache_dir: str | Path | None = None, metrics=None,
                 profiler=None):
        self.cache_dir = cache_dir
        self.observer = Observer(metrics=metrics, profiler=profiler)
        self._values: dict[str, Any] = {}
        self._sessions: dict[str, Any] = {}

    # -- plumbing ----------------------------------------------------------

    def _compute(self, fn: Callable[[], Any]) -> Any:
        """Run an artifact compute under a ``cache.compute`` span (nested
        under ``cache.lookup`` on the cache-enabled path)."""
        with self.observer.profiler.span("cache.compute"):
            return fn()

    def _count(self, hit: bool) -> None:
        name = "experiments.cache_hits" if hit else "experiments.cache_misses"
        self.observer.metrics.counter(name).inc()

    def key(self, kind: str, **params) -> str:
        """Content hash of (kind, params, cache version, code revision).

        Parameters exposing a ``cache_token()`` method (e.g.
        :class:`repro.faults.FaultPlan`) are keyed by that token, so
        artifacts computed under one fault plan are never served to a
        run with a different plan -- or to a fault-free run.
        """
        canonical = {
            name: (
                value.cache_token()
                if hasattr(value, "cache_token")
                else value
            )
            for name, value in params.items()
        }
        payload = json.dumps(
            {
                "kind": kind,
                "params": canonical,
                "version": CACHE_VERSION,
                "salt": _code_salt(),
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _dir(self) -> Path | None:
        if self.cache_dir is not None:
            return Path(self.cache_dir)
        env = os.environ.get("REPRO_CACHE_DIR", "")
        return Path(env) if env else None

    def _disk_load(self, key: str) -> Any:
        """The stored artifact, or :data:`_MISS` when absent/unreadable.

        The sentinel (not ``None``) signals a miss, so a legitimately
        cached ``None`` artifact round-trips as a hit.
        """
        root = self._dir()
        if root is None:
            return _MISS
        path = root / f"{key}.pkl"
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError):
            return _MISS

    def _disk_store(self, key: str, value: Any) -> None:
        root = self._dir()
        if root is None:
            return
        try:
            root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, root / f"{key}.pkl")
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            # A read-only or full cache dir degrades to recomputation;
            # say so (once) instead of silently eating every future run.
            self.observer.metrics.counter("experiments.cache_store_failures").inc()
            global _STORE_FAILURE_WARNED
            if not _STORE_FAILURE_WARNED:
                _STORE_FAILURE_WARNED = True
                warnings.warn(
                    f"experiment cache store under {root} failed ({exc}); "
                    "artifacts will be recomputed every run until "
                    "REPRO_CACHE_DIR is writable again",
                    RuntimeWarning,
                    stacklevel=3,
                )

    @contextmanager
    def _locked(self, root: Path, key: str):
        """Per-key advisory file lock serializing concurrent computes.

        Holding ``<key>.lock`` while computing and storing an artifact
        turns a would-be cache stampede (N workers computing the same
        artifact) into one compute plus N-1 disk hits.  A blocked
        acquisition increments ``experiments.cache_lock_waits``.  On
        platforms without :mod:`fcntl`, or when the lock file cannot be
        created, the cache degrades to lock-free operation -- still
        correct (stores are atomic), just stampede-prone.
        """
        if fcntl is None:
            yield
            return
        try:
            root.mkdir(parents=True, exist_ok=True)
            handle = open(root / f"{key}.lock", "ab")
        except OSError:
            yield
            return
        try:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self.observer.metrics.counter("experiments.cache_lock_waits").inc()
                fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(handle, fcntl.LOCK_UN)
            finally:
                handle.close()

    # -- entry points ------------------------------------------------------

    def value(self, kind: str, params: dict, compute: Callable[[], Any]) -> Any:
        """Generic memo for a deterministic, parameter-keyed computation."""
        if not cache_enabled():
            return self._compute(compute)
        with self.observer.profiler.span("cache.lookup"):
            return self._value(kind, params, compute)

    def _value(self, kind: str, params: dict, compute: Callable[[], Any]) -> Any:
        key = self.key(kind, **params)
        cached = self._values.get(key, _MISS)
        if cached is not _MISS:
            self._count(hit=True)
            return cached
        stored = self._disk_load(key)
        if stored is not _MISS:
            self._count(hit=True)
            self._values[key] = stored
            return stored
        self._count(hit=False)
        root = self._dir()
        if root is None:
            result = self._values[key] = self._compute(compute)
            return result
        with self._locked(root, key):
            # A concurrent worker may have stored it while this one
            # waited on the lock; one compute serves the whole pool.
            stored = self._disk_load(key)
            if stored is not _MISS:
                self._values[key] = stored
                return stored
            result = self._values[key] = self._compute(compute)
            self._disk_store(key, result)
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
        with self.observer.profiler.span("cache.lookup"):
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
            session = _TraceSession(build, name)
            stored = self._disk_load(skey)
            if stored is not _MISS:
                session.adopt(stored)
            self._sessions[skey] = session
        if len(session.records) >= nsteps:
            self._count(hit=True)
            return session.prefix(nsteps)
        self._count(hit=False)
        root = self._dir()
        if root is None:
            return self._compute(lambda: session.extend_to(nsteps))
        with self._locked(root, skey):
            # A concurrent worker may have stored a capture at least as
            # long while this one waited; adopting it (when no live
            # stepper would be discarded) skips the recompute and is
            # bit-identical by determinism.
            stored = self._disk_load(skey)
            if (
                stored is not _MISS
                and session.stepper is None
                and len(stored.steps) >= nsteps
            ):
                session.adopt(stored)
                return session.prefix(nsteps)
            trace = self._compute(lambda: session.extend_to(nsteps))
            if stored is _MISS or len(stored.steps) < len(session.records):
                self._disk_store(skey, session.prefix(len(session.records)))
        return trace

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
        with self.observer.profiler.span("cache.lookup"):
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
            session = _FieldSession(build, extract)
            self._sessions[skey] = session
        if nsteps in session.fields:
            self._count(hit=True)
            return session.fields[nsteps].copy()
        fkey = self.key(kind, **params, nsteps=nsteps)
        stored = self._disk_load(fkey)
        if stored is not _MISS:
            self._count(hit=True)
            session.fields[nsteps] = stored
            return stored.copy()
        self._count(hit=False)
        root = self._dir()
        if root is None:
            field = self._compute(lambda: session.advance_to(nsteps))
            session.fields[nsteps] = field
            return field.copy()
        with self._locked(root, fkey):
            stored = self._disk_load(fkey)
            if stored is not _MISS:
                session.fields[nsteps] = stored
                return stored.copy()
            field = self._compute(lambda: session.advance_to(nsteps))
            session.fields[nsteps] = field
            self._disk_store(fkey, field)
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
