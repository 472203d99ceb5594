"""Unit tests for Store."""

import pytest

from repro.errors import ResourceError
from repro.hpc.event import Simulator
from repro.hpc.resources import Store


@pytest.fixture()
def sim():
    return Simulator()


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def producer(sim):
            yield store.put("item")

        def consumer(sim):
            item = yield store.get()
            return item

        sim.process(producer(sim))
        c = sim.process(consumer(sim))
        sim.run()
        assert c.value == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def consumer(sim):
            item = yield store.get()
            return (item, sim.now)

        def producer(sim):
            yield sim.timeout(4.0)
            yield store.put("late")

        c = sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert c.value == ("late", 4.0)

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        received = []

        def producer(sim):
            for item in ("a", "b", "c"):
                yield store.put(item)

        def consumer(sim):
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert received == ["a", "b", "c"]

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def producer(sim):
            yield store.put("first")
            log.append(("put-first", sim.now))
            yield store.put("second")
            log.append(("put-second", sim.now))

        def consumer(sim):
            yield sim.timeout(3.0)
            yield store.get()

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert log == [("put-first", 0.0), ("put-second", 3.0)]

    def test_len_reflects_buffer(self, sim):
        store = Store(sim)

        def producer(sim):
            yield store.put(1)
            yield store.put(2)

        sim.process(producer(sim))
        sim.run()
        assert len(store) == 2

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(ResourceError):
            Store(sim, capacity=0)
