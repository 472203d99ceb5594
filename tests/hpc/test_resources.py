"""Unit tests for Store."""

import pytest

from repro.hpc.event import Simulator
from repro.hpc.resources import Store


@pytest.fixture()
def sim():
    return Simulator()


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def consumer(sim):
            item = yield store.get()
            return item

        store.put("item")
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
            store.put("late")

        c = sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert c.value == ("late", 4.0)

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        received = []

        def consumer(sim):
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        for item in ("a", "b", "c"):
            store.put(item)
        sim.process(consumer(sim))
        sim.run()
        assert received == ["a", "b", "c"]

    def test_put_serves_waiting_getters_in_order(self, sim):
        store = Store(sim)
        first, second = store.get(), store.get()
        assert store.put("a") is None
        store.put("b")
        store.put("c")
        assert (first.value, second.value) == ("a", "b")
        assert len(store) == 1

    def test_len_reflects_buffer(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
