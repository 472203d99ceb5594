"""A waitable FIFO built on the event kernel.

:class:`Store` is an unbounded FIFO of items; ``get`` returns an event
that fires when an item is available.  It holds the staging area's job
queue.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.hpc.event import Event, Simulator

__all__ = ["Store"]


class Store:
    """An unbounded FIFO buffer of Python objects with waitable ``get``.

    ``put`` appends at once; ``get`` returns an event firing with the
    oldest item.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append an item, handing it to the oldest waiting getter."""
        self._items.append(item)
        self._serve()

    def get(self) -> Event:
        """Remove and return (via the event value) the oldest item."""
        event = Event(self.sim, "get(%s)", self.name)
        self._getters.append(event)
        self._serve()
        return event

    def _serve(self) -> None:
        # Serve waiting getters (abandoned getters must not eat items).
        while self._getters and self._items:
            getter = self._getters.popleft()
            if getter.triggered or getter.abandoned:
                continue
            getter.succeed(self._items.popleft())
