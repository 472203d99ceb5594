"""Typed discrete-event kernel: the engine under :mod:`repro.hpc.event`.

This module is the *engine layer* of the stack documented in
``docs/kernel.md``: a domain-agnostic event core with no knowledge of
workflows, staging or policies.  It owns exactly four things:

- **Typed event records.**  Every scheduled occurrence is a
  ``(time, seq, kind, payload)`` tuple.  ``kind`` is a small integer
  code drawn from the :data:`KERNEL_EVENT_KINDS` registry (``control``,
  ``timer``, ``compute``, ``transfer``, ``staging``, ...), so the engine
  can count and route events without inspecting payloads.
- **One heapq heap**: :class:`EventKernel` keeps the records in a plain
  list ordered by :mod:`heapq`.  ``seq`` increases monotonically with
  submission and is unique, so tuple comparison never reaches ``kind``
  or ``payload`` and same-timestamp events pop in submission order.
- **First-class cheap counters** (:class:`KernelCounters`): per-kind
  scheduled/processed tallies plus named counters, each a plain integer
  increment -- always on, no observability hook required.
- **An injected RNG**: :class:`EventKernel` owns a
  ``numpy.random.Generator`` so stochastic domains draw from a seeded,
  replaceable stream instead of global state.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "KERNEL_EVENT_KINDS",
    "EventKernel",
    "KernelCounters",
    "event_kind_code",
    "event_kind_name",
    "register_event_kind",
]


#: Every registered event kind, ``name -> description``.  Codes are the
#: insertion order (``control`` is 0).  ``docs/kernel.md`` documents each
#: and ``TestKernelDocs`` keeps the table in sync with this registry.
KERNEL_EVENT_KINDS: dict[str, str] = {}

_KIND_CODES: dict[str, int] = {}
_KIND_NAMES: list[str] = []


def register_event_kind(name: str, description: str) -> int:
    """Register an event kind; returns its integer code.

    Codes are assigned by registration order and never reused.
    """
    if not name or not description.strip():
        raise SimulationError("event kinds need a name and a description")
    if name in _KIND_CODES:
        raise SimulationError(f"event kind {name!r} already registered")
    code = len(_KIND_NAMES)
    KERNEL_EVENT_KINDS[name] = description
    _KIND_CODES[name] = code
    _KIND_NAMES.append(name)
    return code


def event_kind_code(name: str) -> int:
    """The integer code of a registered kind name."""
    try:
        return _KIND_CODES[name]
    except KeyError:
        raise SimulationError(f"unknown event kind {name!r}") from None


def event_kind_name(code: int) -> str:
    """The registered name of an integer kind code."""
    if 0 <= code < len(_KIND_NAMES):
        return _KIND_NAMES[code]
    raise SimulationError(f"unknown event kind code {code}")


#: The engine's own bookkeeping events: process starts and resumes,
#: event-callback deliveries, combinator wake-ups.
CONTROL = register_event_kind(
    "control",
    "engine bookkeeping: process starts/resumes, event-callback "
    "deliveries and combinator wake-ups",
)
#: A plain :class:`~repro.hpc.event.Timeout` firing.
TIMER = register_event_kind(
    "timer",
    "a plain Timeout firing (untagged simulated delays)",
)
#: Simulation/analysis compute intervals (the workflow driver's step,
#: reduction and analysis timeouts).
COMPUTE = register_event_kind(
    "compute",
    "a compute interval completing: simulation steps, reductions and "
    "analysis passes",
)
#: Network flow-set changes (admissions, wake-ups, zero-size finishes).
TRANSFER = register_event_kind(
    "transfer",
    "a network flow-set change: flow admission, completion wake-up or "
    "zero-size finish",
)
#: Staging service intervals.
STAGING = register_event_kind(
    "staging",
    "a staging service interval completing (one analysis job's pass)",
)


class KernelCounters:
    """Always-on integer tallies: the kernel's first-class cheap metrics.

    Per-kind ``scheduled``/``processed`` lists are indexed by kind code;
    :meth:`inc` maintains arbitrary named counters.  Every update is one
    integer add, cheap enough to leave on unconditionally (unlike the
    injected observability hooks).
    """

    __slots__ = ("scheduled", "processed", "named")

    def __init__(self) -> None:
        n = len(_KIND_NAMES)
        self.scheduled = [0] * n
        self.processed = [0] * n
        self.named: dict[str, int] = {}

    def _ensure(self, code: int) -> None:
        while len(self.scheduled) <= code:
            self.scheduled.append(0)
            self.processed.append(0)

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        self.named[name] = self.named.get(name, 0) + amount

    @property
    def total_scheduled(self) -> int:
        """Events scheduled across every kind."""
        return sum(self.scheduled)

    @property
    def total_processed(self) -> int:
        """Events dispatched across every kind."""
        return sum(self.processed)

    def scheduled_by_kind(self) -> dict[str, int]:
        """``kind name -> scheduled count`` (registered kinds only)."""
        return {
            name: self.scheduled[code]
            for code, name in enumerate(_KIND_NAMES)
            if code < len(self.scheduled)
        }

    def processed_by_kind(self) -> dict[str, int]:
        """``kind name -> processed count`` (registered kinds only)."""
        return {
            name: self.processed[code]
            for code, name in enumerate(_KIND_NAMES)
            if code < len(self.processed)
        }

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly snapshot of every tally."""
        return {
            "scheduled": self.scheduled_by_kind(),
            "processed": self.processed_by_kind(),
            "named": dict(self.named),
        }


class EventKernel:
    """The pure engine: clock + heapq heap + handlers + counters + RNG.

    ``heap`` is a plain list of ``(time, seq, kind, payload)`` tuples
    kept in :mod:`heapq` order.  The payload rides in the tuple; ``seq``
    is unique, so comparison stops at ``(time, seq)``.

    Parameters
    ----------
    rng:
        Seed or ``numpy.random.Generator`` for stochastic domains.  The
        kernel never draws from it itself; owning it here gives every
        domain one seeded, injectable stream (``kernel.rng``).
    """

    def __init__(self, rng: Any = None):
        self.now = 0.0
        self.heap: list[tuple[float, int, int, Any]] = []
        self._next_seq = 0
        self.counters = KernelCounters()
        self.rng = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        # kind code -> handler(payload) or None.
        self._handlers: list[Callable | None] = [None] * len(_KIND_NAMES)

    def __len__(self) -> int:
        return len(self.heap)

    def on(self, kind: int | str, handler: Callable) -> None:
        """Register ``handler`` for an event kind; it is called once per
        event as ``handler(payload)``."""
        code = kind if isinstance(kind, int) else event_kind_code(kind)
        if not (0 <= code < len(_KIND_NAMES)):
            raise SimulationError(f"unknown event kind code {code}")
        while len(self._handlers) <= code:
            self._handlers.append(None)
        self._handlers[code] = handler

    def schedule(self, when: float, kind: int, payload: Any = None) -> int:
        """Schedule one event; returns its sequence number.

        ``kind`` must be an integer code (resolve names once with
        :func:`event_kind_code`; this is the per-event hot path).
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self.now})"
            )
        counters = self.counters
        try:
            counters.scheduled[kind] += 1
        except IndexError:
            counters._ensure(kind)
            counters.scheduled[kind] += 1
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self.heap, (float(when), seq, kind, payload))
        return seq

    def peek(self) -> float:
        """Time of the next event, ``inf`` when the heap is empty."""
        return self.heap[0][0] if self.heap else math.inf

    def dispatch_next(self) -> None:
        """Pop and dispatch exactly one event.

        Advances the clock to the event's time, counts it, and calls the
        kind's handler as ``handler(payload)``; callers may interleave
        per-event work (the simulator's orphan-failure barrier) between
        dispatches.
        """
        if not self.heap:
            raise SimulationError("dispatch from an empty event heap")
        when, _seq, code, payload = heapq.heappop(self.heap)
        self.now = when
        counters = self.counters
        try:
            counters.processed[code] += 1
        except IndexError:
            counters._ensure(code)
            counters.processed[code] += 1
        handler = self._handlers[code] if code < len(self._handlers) else None
        if handler is None:
            raise SimulationError(
                f"no handler registered for event kind "
                f"{event_kind_name(code)!r}"
            )
        handler(payload)
