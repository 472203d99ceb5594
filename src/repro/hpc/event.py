"""Deterministic discrete-event simulation: the generator-process adapter.

The waitable API every component programs against -- :class:`Simulator`,
:class:`Process`, :class:`Event`, :class:`Timeout`, the combinators --
is a thin adapter over the typed event engine in
:mod:`repro.hpc.kernel` (see ``docs/kernel.md`` for the layering).  The
kernel owns the clock, the heapq event heap, the per-kind counters and
the injected RNG; this module owns generator processes,
callbacks and failure propagation.

The design follows the classic event-list pattern (and will feel familiar
to SimPy users) but is intentionally small and fully deterministic:

- :class:`Simulator` schedules typed event records on the kernel and
  drains them one at a time.  **Tie-breaking contract:** events at the
  same timestamp fire in submission order -- the kernel orders records
  by ``(time, seq)`` with a monotonically increasing ``seq``, so a run
  is a pure function of its inputs.  The property suite checks dispatch
  order against a sort computed in the test, and a pinned digest guards
  a whole workflow trace byte-for-byte.
- :class:`Process` wraps a Python generator.  The generator *yields*
  waitables (:class:`Timeout`, :class:`Event`, another :class:`Process`,
  :class:`AllOf`, :class:`AnyOf`) and is resumed when the waitable fires.
- :class:`Event` is a one-shot triggerable with a value; failing an event
  propagates the exception into every waiter.

Domain components tag the events they schedule (``kind="compute"``,
``"transfer"``, ``"staging"``) so the kernel's counters attribute event
traffic per layer; untagged engine bookkeeping is ``control`` and plain
timeouts are ``timer``.  There is no wall-clock or thread anywhere in
the kernel.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from typing import Any

from repro.errors import SimulationError
from repro.hpc.kernel import EventKernel, event_kind_code
from repro.observability.observer import NULL_OBSERVER, Observer

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

_CONTROL = event_kind_code("control")
_TIMER = event_kind_code("timer")


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

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = _PENDING
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["Event"], None]] = []
        # Set when the last waiter detached (interrupt) before the trigger:
        # resources/stores use it to drop zombie requests from their queues.
        self.abandoned = False

    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._value is not _PENDING or self._exception is not None

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
        self._value = value
        self.sim._queue_callbacks(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, propagating to all waiters."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        self._exception = exception
        self.sim._queue_callbacks(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event triggers."""
        if self.triggered:
            self.sim._schedule_call(lambda: callback(self))
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds in the future.

    ``kind`` tags the scheduled record for the kernel's per-kind
    counters; domain components pass ``"compute"``/``"staging"`` so
    event traffic is attributable per layer.
    """

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 kind: int | str = _TIMER):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim, name=f"timeout({delay:g})")
        self.delay = float(delay)
        sim._schedule_at(sim.now + self.delay, self._fire, value, kind=kind)

    def _fire(self, value: Any) -> None:
        if not self.triggered:
            self._value = value
            self.sim._queue_callbacks(self)


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The value of the process-event is the generator's return value; an
    uncaught exception in the generator fails the event (and, if nothing
    is waiting on the process, aborts the simulation run so bugs do not
    pass silently).
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Event | None = None
        sim._schedule_call(lambda: self._resume(None, None))

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        waited = self._waiting_on
        if waited is not None and not waited.triggered:
            # Detach from whatever the process was waiting on; if that
            # leaves the event with no waiters it is a zombie (e.g. a
            # queued store get) and must never consume an item.
            self._detach(waited)
            if not waited._callbacks:
                waited.abandoned = True
        self._waiting_on = None
        self.sim._schedule_call(lambda: self._resume(None, Interrupt(cause)))

    def _detach(self, event: Event) -> None:
        event._callbacks = [cb for cb in event._callbacks if getattr(cb, "__self__", None) is not self]

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        if event is not self._waiting_on:
            return  # stale wake-up after an interrupt
        self._waiting_on = None
        if event._exception is not None:
            self._resume(None, event._exception)
        else:
            self._resume(event._value, None)

    def _resume(self, value: Any, exc: BaseException | None) -> None:
        if self.triggered:
            return
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._value = stop.value
            self.sim._queue_callbacks(self)
            return
        except BaseException as error:  # noqa: BLE001 - deliberate fault barrier
            self._exception = error
            # A failure is "handled" iff somebody was already waiting on this
            # process when it died; that waiter receives the exception.
            handled = bool(self._callbacks)
            self.sim._queue_callbacks(self)
            if not handled:
                self.sim._note_process_failure(self, error)
            return
        self._wait_on(self._coerce(target))

    def _coerce(self, target: Any) -> Event:
        if isinstance(target, Event):
            return target
        raise SimulationError(
            f"process {self.name!r} yielded {target!r}; processes must yield Event instances"
        )

    def _wait_on(self, event: Event) -> None:
        self._waiting_on = event
        event.add_callback(self._on_event)


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
            sim._schedule_call(lambda: self.succeed([]))
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
    ``(time, seq, kind, payload)`` records onto the kernel and the run
    loop drains them one at a time through
    :meth:`~repro.hpc.kernel.EventKernel.dispatch_next`, preserving the
    pre-kernel semantics bit-for-bit (per-event orphan-failure barrier
    included).  Payloads on this path are ``(func, args)`` pairs.

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
    :meth:`_schedule_at` call.
    """

    def __init__(self, faults: Any = None,
                 observer: Observer = NULL_OBSERVER, rng: Any = None):
        self.kernel = EventKernel(rng=rng)
        for name in ("control", "timer", "compute", "transfer", "staging"):
            self.kernel.on(name, self._call_payload)
        self._unhandled: list[tuple[Process, BaseException]] = []
        # Optional fault injector (repro.faults.FaultInjector); duck-typed
        # so the kernel stays free of upward imports.
        self.faults = faults
        # The observer's wall-clock profiler: the kernel itself stays free
        # of wall time -- the span only measures how long *we* take to
        # replay simulated time.
        self._run_span = observer.profiler.span("sim.run")
        if faults is not None:
            faults.attach_simulator(self)

    @property
    def now(self) -> float:
        """The current simulated time in seconds."""
        return self.kernel.now

    @property
    def rng(self):
        """The kernel's injected ``numpy.random.Generator``."""
        return self.kernel.rng

    # -- factory helpers -------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None,
                kind: int | str = _TIMER) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` seconds from now."""
        return Timeout(self, delay, value, kind=kind)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new :class:`Process` from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling internals --------------------------------------------

    def _call_payload(self, payload: tuple[Callable, tuple]) -> None:
        func, args = payload
        func(*args)

    def _schedule_at(self, when: float, func: Callable, *args: Any,
                     kind: int | str = _CONTROL) -> None:
        """Schedule ``func(*args)`` at simulated time ``when``.

        Same-``when`` calls run in the order they were scheduled (the
        kernel's ``seq`` tie-break); scheduling in the past raises.
        """
        code = kind if type(kind) is int else event_kind_code(kind)
        self.kernel.schedule(when, code, (func, args))

    def _schedule_call(self, func: Callable[[], None]) -> None:
        self.kernel.schedule(self.kernel.now, _CONTROL, (func, ()))

    def _queue_callbacks(self, event: Event) -> None:
        callbacks, event._callbacks = event._callbacks, []
        for callback in callbacks:
            self._schedule_call(lambda cb=callback: cb(event))

    def _note_process_failure(self, process: Process, error: BaseException) -> None:
        self._unhandled.append((process, error))

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
        with self._run_span:
            stop_event: Event | None = None
            horizon: float | None = None
            engine = self.kernel
            if isinstance(until, Event):
                stop_event = until
            elif until is not None:
                horizon = float(until)
                if horizon < engine.now:
                    raise SimulationError(f"run(until={horizon}) is in the past (now={engine.now})")

            heap = engine.heap
            dispatch_next = engine.dispatch_next
            unhandled = self._unhandled
            while heap:
                if stop_event is not None and stop_event.triggered:
                    break
                if horizon is not None and heap[0][0] > horizon:
                    engine.now = horizon
                    break
                dispatch_next()
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
