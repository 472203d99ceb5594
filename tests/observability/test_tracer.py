"""Tests for the Tracer: ordering, ring buffer, JSONL round trip."""

import json

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.hpc.event import Simulator
from repro.observability import EVENT_KINDS, TraceEvent, Tracer
from tests.observability.jsonl import to_jsonl


class TestOrderingUnderSimulator:
    def test_timestamps_follow_the_simulated_clock(self):
        sim = Simulator()
        tracer = Tracer(clock=lambda: sim.now)

        def proc():
            tracer.emit("step.start", step=1)
            yield sim.timeout(2.5)
            tracer.emit("step.end", step=1)
            yield sim.timeout(1.5)
            tracer.emit("step.start", step=2)

        sim.run(sim.process(proc()))
        times = [e.ts for e in tracer.events()]
        assert times == [0.0, 2.5, 4.0]

    def test_seq_totally_orders_simultaneous_events(self):
        sim = Simulator()
        tracer = Tracer(clock=lambda: sim.now)

        def a():
            yield sim.timeout(1.0)
            tracer.emit("first")

        def b():
            yield sim.timeout(1.0)
            tracer.emit("second")

        pa, pb = sim.process(a()), sim.process(b())
        sim.run(sim.all_of([pa, pb]))
        events = tracer.events()
        assert [e.ts for e in events] == [1.0, 1.0]
        # The kernel breaks time ties by insertion order; seq preserves it.
        assert [e.kind for e in events] == ["first", "second"]
        assert events[0].seq < events[1].seq

    def test_unclocked_tracer_still_orders_by_seq(self):
        tracer = Tracer()
        tracer.emit("a")
        tracer.emit("b")
        assert [e.seq for e in tracer.events()] == [0, 1]
        assert all(e.ts == 0.0 for e in tracer.events())


class TestRingBuffer:
    def test_capacity_evicts_oldest_and_counts_drops(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.emit("tick", i=i)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [e.fields["i"] for e in tracer.events()] == [2, 3, 4]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ObservabilityError):
            Tracer(capacity=0)


class TestFiltering:
    def test_filter_by_kind_and_step(self):
        tracer = Tracer()
        tracer.emit("step.start", step=1)
        tracer.emit("step.end", step=1)
        tracer.emit("step.start", step=2)
        assert len(tracer.events(kind="step.start")) == 2
        assert len(tracer.events(step=1)) == 2
        assert len(tracer.events(kind="step.end", step=2)) == 0
        assert {e.kind for e in tracer.events()} == {"step.start", "step.end"}


class TestJsonl:
    def test_roundtrip_text(self):
        tracer = Tracer()
        tracer.emit("adapt.decision", step=3, factor=2, placement="in_situ")
        tracer.emit("sim.stall", step=4, seconds=1.25, cause="staging_memory")
        restored = [TraceEvent(**json.loads(line))
                    for line in to_jsonl(tracer).splitlines()]
        assert restored == tracer.events()

    def test_json_events_dump_to_the_jsonl_lines(self):
        tracer = Tracer()
        tracer.emit("adapt.decision", step=1, factor=np.int64(2), share=np.float64(0.5),
                    cores=(4, 8), nested={"a": [np.float32(1.5), None]}, by_step={3: True},
                    mode=ObservabilityError("x"))
        tracer.emit("sim.stall", seconds=float("inf"), cause="staging_memory")
        lines = to_jsonl(tracer).splitlines()
        assert [json.dumps(e) for e in tracer.json_events()] == lines
        assert tracer.json_events() == [json.loads(line) for line in lines]


class TestEventRegistry:
    def test_kinds_are_unique_and_described(self):
        assert len(EVENT_KINDS) == len(set(EVENT_KINDS))
        for kind, description in EVENT_KINDS.items():
            assert "." in kind
            assert description
