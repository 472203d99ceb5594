"""Deterministic discrete-event simulation: the generator-process adapter.

The waitable API every component programs against -- :class:`Simulator`,
:class:`Process`, :class:`Event`, :class:`Timeout`, the combinators --
is a thin adapter over the typed event engine in
:mod:`repro.hpc.kernel` (see ``docs/kernel.md`` for the layering).  The
kernel owns the clock, the heapq event heap and the per-kind counters;
this module owns generator processes, callbacks and failure
propagation.

The design follows the classic event-list pattern (and will feel familiar
to SimPy users) but is intentionally small and fully deterministic:

- :class:`Simulator` schedules typed ``(time, seq, kind, func, args)``
  records on the kernel and drains them one at a time.
  **Tie-breaking contract:** events at the same timestamp fire in
  submission order -- the kernel orders records by ``(time, seq)`` with
  a monotonically increasing ``seq``, so a run is a pure function of its
  inputs.  The property suite checks dispatch order against a sort
  computed in the test, and a pinned digest guards a whole workflow
  trace byte-for-byte.
- :class:`Process` wraps a Python generator.  The generator *yields*
  waitables (:class:`Timeout`, :class:`Event`, another :class:`Process`,
  :class:`AllOf`, :class:`AnyOf`) and is resumed when the waitable fires.
- :class:`Event` is a one-shot triggerable with a value; failing an event
  propagates the exception into every waiter.

Domain components tag the events they schedule with the ``COMPUTE``,
``TRANSFER``, ``STAGING`` and ``TENANT`` kind constants of
:mod:`repro.hpc.kernel` so the kernel's counters attribute event traffic
per layer; untagged engine bookkeeping is ``CONTROL`` and plain timeouts
are ``TIMER``.  There is no wall-clock or thread anywhere in
the kernel.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Generator, Iterable
from typing import Any

from repro.errors import SimulationError
from repro.hpc.kernel import CONTROL, TIMER, EventKernel

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "Timeout",
]

_PENDING = object()


class Interrupt(Exception):
    """Thrown into a process that another process interrupts.

    The ``cause`` attribute carries the value given to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is fired exactly once with
    :meth:`succeed` or :meth:`fail`.  Waiters registered before or after
    the trigger both observe it: a callback added to an already-triggered
    event is scheduled immediately.
    """

    #: True once the event has been succeeded or failed; every path that
    #: fires an event sets it.
    triggered = False
    _value: Any = _PENDING
    _exception: BaseException | None = None
    #: Set when the last waiter detached (interrupt) before the trigger:
    #: resources/stores use it to drop zombie requests from their queues.
    abandoned = False
    _name = ""
    _name_args: tuple = ()

    def __init__(self, sim: "Simulator", name: str = "", *name_args: Any):
        self.sim = sim
        self._callbacks: list[Callable[["Event"], None]] = []
        if name:
            self._name = name
            self._name_args = name_args

    @property
    def name(self) -> str:
        """The name; a ``%`` template with ``name_args`` is formatted only when read."""
        if self._name_args:
            return self._name % self._name_args
        return self._name

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value; raises if the event is pending or failed."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError(f"event {self.name!r} has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._fire(value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, propagating to all waiters."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        self._fire(None, exception)
        return self

    def _fire(self, value: Any, exception: BaseException | None = None) -> None:
        """Trigger the event unless it already has and schedule each callback
        as its own ``control`` record now, in registration order: the one
        delivery loop, which a :class:`Timeout`'s kernel record calls directly."""
        if self.triggered:
            return
        self._value = value
        self._exception = exception
        self.triggered = True
        callbacks, self._callbacks = self._callbacks, []
        kernel = self.sim.kernel
        args = (self,)
        for callback in callbacks:
            kernel.schedule(kernel.now, CONTROL, callback, args)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event triggers."""
        if self.triggered:
            self.sim.kernel.schedule(self.sim.kernel.now, CONTROL, callback, (self,))
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds in the future.

    :meth:`Simulator.timeout` builds it with no ``__init__`` chain; the
    ``timeout(<delay>)`` name is built only when something reads it.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        raise TypeError("create a Timeout with Simulator.timeout")

    @property
    def name(self) -> str:
        return f"timeout({self.delay:g})"


class _Wake:
    """The pre-fired stand-in event a process's start (value ``None``)
    or an interrupt (its :class:`Interrupt`) delivers to ``_resume``."""

    _value = None

    def __init__(self, exception: BaseException | None = None):
        self._exception = exception


_START = _Wake()


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The value of the process-event is the generator's return value; an
    uncaught exception in the generator fails the event (and, if nothing
    is waiting on the process, aborts the simulation run so bugs do not
    pass silently).
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "",
                 *name_args: Any):
        super().__init__(sim, name or getattr(generator, "__name__", "process"),
                         *name_args)
        self._generator = generator
        self._waiting_on: Event | None = None
        sim.kernel.schedule(sim.kernel.now, CONTROL, self._resume, (_START,))

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        self._stop_waiting()
        kernel = self.sim.kernel
        kernel.schedule(kernel.now, CONTROL, self._resume, (_Wake(Interrupt(cause)),))

    def close(self) -> None:
        """Stop the process where it waits, scheduling nothing.

        The process detaches from the event it waits on and its generator
        is closed; the process-event never fires.  A process parked on an
        event that never fires (a worker's queue get) is otherwise kept
        alive by that event's callbacks, and with it everything its
        generator's frame holds.
        """
        self._stop_waiting()
        self._generator.close()

    def _stop_waiting(self) -> None:
        waited = self._waiting_on
        if waited is not None and not waited.triggered:
            # Detach from whatever the process was waiting on; if that
            # leaves the event with no waiters it is a zombie (e.g. a
            # queued store get) and must never consume an item.
            waited._callbacks = [cb for cb in waited._callbacks
                                 if getattr(cb, "__self__", None) is not self]
            if not waited._callbacks:
                waited.abandoned = True
        self._waiting_on = None

    def _resume(self, event: Event | _Wake) -> None:
        """Send ``event``'s outcome into the generator and wait on what it
        yields next.  The one generator-driving body: every ``control``
        record a process receives calls it."""
        if self.triggered:
            return
        if event is self._waiting_on:
            self._waiting_on = None
        elif not isinstance(event, _Wake):
            return  # stale wake-up after an interrupt
        try:
            if event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self._fire(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - deliberate fault barrier
            # A failure is "handled" iff somebody was already waiting on this
            # process when it died; that waiter receives the exception.
            handled = bool(self._callbacks)
            self._fire(None, error)
            if not handled:
                self.sim._unhandled.append((self, error))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event instances"
            )
        self._waiting_on = target
        if target.triggered:
            kernel = self.sim.kernel
            kernel.schedule(kernel.now, CONTROL, self._resume, (target,))
        else:
            target._callbacks.append(self._resume)


class AllOf(Event):
    """Fires when every child event has triggered successfully.

    Its value is the list of child values in the order given.  If any
    child fails, this event fails with the first failure.
    """

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            sim._schedule_at(sim.now, self.succeed, [])
        else:
            for event in self._events:
                event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(Event):
    """Fires when the first child event triggers; value is ``(event, value)``."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed((event, event._value))


class Simulator:
    """The generator-process adapter over :class:`~repro.hpc.kernel.EventKernel`.

    Owns no clock and no heap of its own: scheduling pushes typed
    ``(time, seq, kind, func, args)`` records onto the kernel, and
    :meth:`run` -- the only drain loop -- pops them one at a time, sets
    the kernel clock, counts the record's kind and calls ``func(*args)``,
    checking the orphan-failure barrier after every event.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.5)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"

    **Determinism / tie-breaking.**  Events scheduled for the same
    timestamp fire in submission order: the kernel's heap orders records
    by ``(time, seq)`` and ``seq`` increases monotonically with each
    record scheduled.
    """

    def __init__(self):
        self.kernel = EventKernel()
        self._unhandled: list[tuple[Process, BaseException]] = []

    @property
    def now(self) -> float:
        """The current simulated time in seconds."""
        return self.kernel.now

    # -- factory helpers -------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None,
                kind: int = TIMER) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` seconds from now.

        ``kind`` tags the scheduled record for the kernel's per-kind
        counters; domain components pass the ``COMPUTE``/``STAGING``
        codes so event traffic is attributable per layer.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        timeout = Timeout.__new__(Timeout)
        timeout.sim = self
        timeout._callbacks = []
        timeout.delay = delay = float(delay)
        kernel = self.kernel
        kernel.schedule(kernel.now + delay, kind, timeout._fire, (value,))
        return timeout

    def process(self, generator: Generator, name: str = "",
                *name_args: Any) -> Process:
        """Start a new :class:`Process` from a generator."""
        return Process(self, generator, name, *name_args)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling internals --------------------------------------------

    def _schedule_at(self, when: float, func: Callable, *args: Any,
                     kind: int = CONTROL) -> None:
        """Schedule ``func(*args)`` at simulated time ``when``.

        Same-``when`` calls run in the order they were scheduled (the
        kernel's ``seq`` tie-break); scheduling in the past raises.
        """
        self.kernel.schedule(when, kind, func, args)

    # -- run loop ----------------------------------------------------------

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the event list drains, ``until`` seconds, or an event fires.

        - ``until=None``: run to exhaustion, return ``None``.
        - ``until=<float>``: stop the clock at that time (events exactly at
          the boundary are executed), return ``None``.
        - ``until=<Event>``: run until the event triggers and return its
          value (re-raising on failure).

        If a process died with an exception nobody was waiting on, the
        exception is re-raised here so failures are never lost.
        """
        stop_event: Event | None = None
        horizon = math.inf
        kernel = self.kernel
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            horizon = float(until)
            if horizon < kernel.now:
                raise SimulationError(f"run(until={horizon}) is in the past (now={kernel.now})")

        heap = kernel.heap
        heappop = heapq.heappop
        processed = kernel.counters.processed
        unhandled = self._unhandled
        while heap:
            if stop_event is not None and stop_event.triggered:
                break
            if heap[0][0] > horizon:
                kernel.now = horizon
                break
            when, _seq, kind, func, args = heappop(heap)
            kernel.now = when
            processed[kind] += 1
            func(*args)
            if unhandled:
                self._raise_orphan_failures()

        self._raise_orphan_failures()
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError("event list drained before the awaited event fired")
            return stop_event.value
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the list is empty."""
        return self.kernel.peek()

    def _raise_orphan_failures(self) -> None:
        if self._unhandled:
            _process, error = self._unhandled.pop(0)
            raise error
