"""Typed discrete-event kernel: the engine under :mod:`repro.hpc.event`.

This module is the *engine layer* of the stack documented in
``docs/kernel.md``: a domain-agnostic event core with no knowledge of
workflows, staging or policies.  It owns exactly three things:

- **Typed event records.**  Every scheduled occurrence is a
  ``(time, seq, kind, func, args)`` tuple.  ``kind`` is a small integer
  code drawn from the closed :data:`KERNEL_EVENT_KINDS` table (``control``,
  ``timer``, ``compute``, ``transfer``, ``staging``, ``tenant``), so the
  engine can count events without inspecting them; ``func(*args)`` is what the
  event does when it fires.
- **One heapq heap**: :class:`EventKernel` keeps the records in a plain
  list ordered by :mod:`heapq`.  ``seq`` increases monotonically with
  submission and is unique, so tuple comparison never reaches ``kind``,
  ``func`` or ``args`` and same-timestamp events pop in submission order.
- **First-class cheap counters** (:class:`KernelCounters`): per-kind
  scheduled/processed tallies, each a plain integer increment -- always
  on, no observability hook required.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = [
    "COMPUTE",
    "CONTROL",
    "KERNEL_EVENT_KINDS",
    "STAGING",
    "TENANT",
    "TIMER",
    "TRANSFER",
    "EventKernel",
    "KernelCounters",
    "event_kind_code",
    "event_kind_name",
]


#: Every event kind, ``name -> description``.  Codes are the insertion
#: order (``control`` is 0).  ``docs/kernel.md`` documents each and
#: ``TestKernelDocs`` keeps the table in sync with this registry.
KERNEL_EVENT_KINDS: dict[str, str] = {
    "control": "engine bookkeeping: process starts/resumes, event-callback "
               "deliveries and combinator wake-ups",
    "timer": "a plain Timeout firing (untagged simulated delays)",
    "compute": "a compute interval completing: simulation steps, "
               "reductions and analysis passes",
    "transfer": "a network flow-set change: flow admission, completion "
                "wake-up or zero-size finish",
    "staging": "a staging service interval completing (one analysis "
               "job's pass)",
    "tenant": "multi-tenant service control: tenant arrivals, "
              "admission-queue drains and staging-grant renegotiations "
              "on the shared machine",
}

_KIND_NAMES: list[str] = list(KERNEL_EVENT_KINDS)
_KIND_CODES: dict[str, int] = {name: code for code, name in enumerate(_KIND_NAMES)}

#: The kind codes, one constant per registered name.
CONTROL, TIMER, COMPUTE, TRANSFER, STAGING, TENANT = range(len(_KIND_NAMES))


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


class KernelCounters:
    """Always-on integer tallies: the kernel's first-class cheap metrics.

    Per-kind ``scheduled``/``processed`` lists are indexed by kind code.
    Every update is one integer add, cheap enough to leave on
    unconditionally.
    """

    __slots__ = ("scheduled", "processed")

    def __init__(self) -> None:
        n = len(_KIND_NAMES)
        self.scheduled = [0] * n
        self.processed = [0] * n

    @property
    def total_scheduled(self) -> int:
        """Events scheduled across every kind."""
        return sum(self.scheduled)

    @property
    def total_processed(self) -> int:
        """Events dispatched across every kind."""
        return sum(self.processed)

    def scheduled_by_kind(self) -> dict[str, int]:
        """``kind name -> scheduled count``."""
        return dict(zip(_KIND_NAMES, self.scheduled))

    def processed_by_kind(self) -> dict[str, int]:
        """``kind name -> processed count``."""
        return dict(zip(_KIND_NAMES, self.processed))

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly snapshot of every tally."""
        return {
            "scheduled": self.scheduled_by_kind(),
            "processed": self.processed_by_kind(),
        }


class EventKernel:
    """The pure engine: clock + heapq heap + counters.

    ``heap`` is a plain list of ``(time, seq, kind, func, args)`` tuples
    kept in :mod:`heapq` order; ``seq`` is unique, so comparison stops
    at ``(time, seq)``.  The kernel has no drain loop:
    :meth:`repro.hpc.event.Simulator.run` pops each record, sets
    :attr:`now`, counts it in ``counters.processed`` and calls
    ``func(*args)``.
    """

    def __init__(self):
        self.now = 0.0
        self.heap: list[tuple[float, int, int, Callable, tuple]] = []
        self._next_seq = 0
        self.counters = KernelCounters()

    def __len__(self) -> int:
        return len(self.heap)

    def schedule(self, when: float, kind: int, func: Callable,
                 args: tuple = ()) -> int:
        """Schedule ``func(*args)`` at ``when``; returns its sequence number.

        ``kind`` is one of the integer kind constants (:data:`CONTROL`
        ... :data:`TENANT`); any other code, negative ones included,
        raises :class:`SimulationError`.  This is the per-event hot path.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self.now})"
            )
        try:
            if kind < 0:  # would index the tallies from the end
                raise IndexError(kind)
            self.counters.scheduled[kind] += 1
        except IndexError:
            raise SimulationError(f"unknown event kind code {kind}") from None
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self.heap, (float(when), seq, kind, func, args))
        return seq

    def peek(self) -> float:
        """Time of the next event, ``inf`` when the heap is empty."""
        return self.heap[0][0] if self.heap else math.inf
