"""The Tracer: a bounded in-memory event sink.

Components never construct a tracer themselves -- one is *injected*
(``tracer=...``) at the workflow's edge and reaches the Monitor, the
Adaptation Engine, the staging area and the driver through their
:class:`~repro.observability.observer.Observer`.  Without one, the
observer holds the null tracer, whose ``enabled`` is False; call sites
check :attr:`Tracer.enabled` (always True on a real tracer) so field
construction is skipped entirely.  Either way tracing costs nothing
measurable on the hot path.

Events land in a ring buffer (``capacity`` newest events are kept; the
``dropped`` counter records evictions), and :meth:`Tracer.json_events`
gives them as the ``events`` section of a run record
(:mod:`repro.observability.record`).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Iterable

from repro.errors import ObservabilityError
from repro.observability.events import TraceEvent

__all__ = ["Tracer"]


def _json_default(value: Any) -> Any:
    """Coerce non-JSON field values: numpy scalars unwrap, the rest repr."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def _json_value(value: Any) -> Any:
    """``value`` as its JSON text (with :func:`_json_default`) parses back,
    without the text: JSON scalars pass through, lists, tuples and
    str-keyed dicts are walked, and anything else takes the round trip."""
    kind = type(value)
    if kind in (str, int, float, bool) or value is None:
        return value
    if kind in (list, tuple):
        return [_json_value(v) for v in value]
    if kind is dict and all(type(k) is str for k in value):
        return {k: _json_value(v) for k, v in value.items()}
    return json.loads(json.dumps(value, default=_json_default))


class Tracer:
    """Collects :class:`TraceEvent` records in emission order.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time.  The workflow
        driver binds this to the event simulator's clock so timestamps
        are simulated seconds; when unset, timestamps are 0.0 and the
        ``seq`` field alone orders events.
    capacity:
        Ring-buffer size; the oldest events are evicted (and counted in
        :attr:`dropped`) once it fills.
    """

    #: A real tracer always records; only the null tracer is disabled.
    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        capacity: int = 65536,
    ):
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1, got {capacity}")
        self.clock = clock
        self.capacity = int(capacity)
        self.dropped = 0
        self._events: deque[TraceEvent] = deque(maxlen=self.capacity)
        self._seq = 0

    # -- recording ---------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach (or replace) the time source for subsequent events."""
        self.clock = clock

    def emit(self, kind: str, step: int | None = None, **fields: Any) -> TraceEvent:
        """Record one event and return it."""
        event = TraceEvent(
            seq=self._seq,
            ts=self.clock() if self.clock is not None else 0.0,
            kind=kind,
            step=step,
            fields=fields,
        )
        self._seq += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        return event

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(
        self, kind: str | None = None, step: int | None = None
    ) -> list[TraceEvent]:
        """All retained events, optionally filtered by kind and/or step."""
        out: Iterable[TraceEvent] = self._events
        if kind is not None:
            out = (e for e in out if e.kind == kind)
        if step is not None:
            out = (e for e in out if e.step == step)
        return list(out)

    # -- export ------------------------------------------------------------

    def json_events(self) -> list[dict[str, Any]]:
        """Retained events as JSON values, the run record's ``events``."""
        return [_json_value(e.as_dict()) for e in self._events]
