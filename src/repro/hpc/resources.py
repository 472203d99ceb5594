"""A waitable FIFO built on the event kernel.

:class:`Store` is an unbounded (or bounded) FIFO of items; ``get``
returns an event that fires when an item is available.  This is the
building block for the staging request queues and the message bus.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import ResourceError
from repro.hpc.event import Event, Simulator

__all__ = ["Store"]


class Store:
    """A FIFO buffer of Python objects with waitable ``get``.

    ``put`` succeeds immediately unless a ``capacity`` (in items) is set and
    reached, in which case the returned event fires when space frees up.
    ``get`` returns an event firing with the oldest item.
    """

    def __init__(self, sim: Simulator, capacity: int | None = None, name: str = "store"):
        if capacity is not None and capacity <= 0:
            raise ResourceError(f"store capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Insert an item; the event fires when the item is accepted."""
        event = Event(self.sim, name=f"put({self.name})")
        self._putters.append((event, item))
        self._drain()
        return event

    def get(self) -> Event:
        """Remove and return (via the event value) the oldest item."""
        event = Event(self.sim, name=f"get({self.name})")
        self._getters.append(event)
        self._drain()
        return event

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Move accepted puts into the buffer (abandoned puts vanish).
            while self._putters and (self.capacity is None or len(self._items) < self.capacity):
                event, item = self._putters.popleft()
                if event.abandoned:
                    progressed = True
                    continue
                self._items.append(item)
                if not event.triggered:
                    event.succeed(item)
                progressed = True
            # Serve waiting getters (abandoned getters must not eat items).
            while self._getters and self._items:
                getter = self._getters.popleft()
                if getter.triggered or getter.abandoned:
                    progressed = True
                    continue
                getter.succeed(self._items.popleft())
                progressed = True
