"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.hpc.event import Interrupt, Simulator


@pytest.fixture()
def sim():
    return Simulator()


class TestClockAndTimeout:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        def proc(sim):
            yield sim.timeout(2.5)

        sim.process(proc(sim))
        sim.run()
        assert sim.now == 2.5

    def test_timeout_value_passthrough(self, sim):
        def proc(sim):
            got = yield sim.timeout(1.0, value="payload")
            return got

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "payload"

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_sequential_timeouts_accumulate(self, sim):
        times = []

        def proc(sim):
            for d in (1.0, 2.0, 3.0):
                yield sim.timeout(d)
                times.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert times == [1.0, 3.0, 6.0]

    def test_run_until_time_stops_clock(self, sim):
        def proc(sim):
            yield sim.timeout(10.0)

        sim.process(proc(sim))
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_keeps_later_events_queued(self, sim):
        seen = []

        def proc(sim, delay):
            yield sim.timeout(delay)
            seen.append(sim.now)

        sim.process(proc(sim, 1.0))
        sim.process(proc(sim, 10.0))
        sim.run(until=4.0)
        assert seen == [1.0]
        assert sim.now == 4.0
        assert sim.peek() == 10.0
        sim.run()
        assert seen == [1.0, 10.0] and sim.now == 10.0

    def test_run_until_past_raises(self, sim):
        def proc(sim):
            yield sim.timeout(5.0)

        sim.process(proc(sim))
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_peek_reports_next_event_time(self, sim):
        def proc(sim):
            yield sim.timeout(7.0)

        sim.process(proc(sim))
        # the process start itself is scheduled at t=0
        assert sim.peek() == 0.0

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")


class TestDeterminism:
    def test_same_time_events_fire_in_creation_order(self, sim):
        order = []

        def proc(sim, tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(proc(sim, tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_repeat_run_is_identical(self):
        def scenario():
            sim = Simulator()
            log = []

            def worker(sim, tag, delay):
                yield sim.timeout(delay)
                log.append((tag, sim.now))

            for i, d in enumerate([0.3, 0.1, 0.2, 0.1]):
                sim.process(worker(sim, i, d))
            sim.run()
            return log

        assert scenario() == scenario()


class TestEvents:
    def test_event_succeed_wakes_waiter(self, sim):
        evt = sim.event()

        def waiter(sim):
            val = yield evt
            return val

        def trigger(sim):
            yield sim.timeout(3.0)
            evt.succeed(42)

        w = sim.process(waiter(sim))
        sim.process(trigger(sim))
        sim.run()
        assert w.value == 42
        assert sim.now == 3.0

    def test_event_fail_propagates_to_waiter(self, sim):
        evt = sim.event()

        def waiter(sim):
            try:
                yield evt
            except ValueError as e:
                return f"caught {e}"

        def trigger(sim):
            yield sim.timeout(1.0)
            evt.fail(ValueError("boom"))

        w = sim.process(waiter(sim))
        sim.process(trigger(sim))
        sim.run()
        assert w.value == "caught boom"

    def test_double_trigger_raises(self, sim):
        evt = sim.event()
        evt.succeed(1)
        with pytest.raises(SimulationError):
            evt.succeed(2)

    def test_value_before_trigger_raises(self, sim):
        evt = sim.event()
        with pytest.raises(SimulationError):
            _ = evt.value

    def test_fail_requires_exception(self, sim):
        evt = sim.event()
        with pytest.raises(SimulationError):
            evt.fail("not an exception")

    def test_waiting_on_already_triggered_event(self, sim):
        evt = sim.event()
        evt.succeed("early")

        def waiter(sim):
            val = yield evt
            return val

        w = sim.process(waiter(sim))
        sim.run()
        assert w.value == "early"


class TestProcesses:
    def test_process_return_value(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return "result"

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "result"

    def test_process_waits_on_process(self, sim):
        def child(sim):
            yield sim.timeout(2.0)
            return 99

        def parent(sim):
            result = yield sim.process(child(sim))
            return result + 1

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == 100

    def test_unhandled_process_exception_surfaces_in_run(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("deliberate")

        sim.process(bad(sim))
        with pytest.raises(RuntimeError, match="deliberate"):
            sim.run()

    def test_handled_child_exception_does_not_abort(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("child error")

        def parent(sim):
            child = sim.process(bad(sim))
            try:
                yield child
            except RuntimeError:
                return "recovered"

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == "recovered"

    def test_yield_non_event_raises(self, sim):
        def bad(sim):
            yield 42

        sim.process(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_is_alive_lifecycle(self, sim):
        def proc(sim):
            yield sim.timeout(5.0)

        p = sim.process(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_run_until_event_returns_value(self, sim):
        def proc(sim):
            yield sim.timeout(2.0)
            return "finished"

        p = sim.process(proc(sim))
        assert sim.run(until=p) == "finished"

    def test_run_until_never_firing_event_raises(self, sim):
        evt = sim.event()

        def proc(sim):
            yield sim.timeout(1.0)

        sim.process(proc(sim))
        with pytest.raises(SimulationError):
            sim.run(until=evt)


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt as i:
                return ("interrupted", i.cause, sim.now)

        def interrupter(sim, victim):
            yield sim.timeout(2.0)
            victim.interrupt("wake up")

        victim = sim.process(sleeper(sim))
        sim.process(interrupter(sim, victim))
        sim.run()
        assert victim.value == ("interrupted", "wake up", 2.0)

    def test_interrupt_finished_process_raises(self, sim):
        def quick(sim):
            yield sim.timeout(0.5)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self, sim):
        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                pass
            yield sim.timeout(1.0)
            return sim.now

        def interrupter(sim, victim):
            yield sim.timeout(2.0)
            victim.interrupt()

        victim = sim.process(sleeper(sim))
        sim.process(interrupter(sim, victim))
        sim.run()
        assert victim.value == 3.0


class TestCombinators:
    def test_all_of_waits_for_slowest(self, sim):
        def worker(sim, delay):
            yield sim.timeout(delay)
            return delay

        def parent(sim):
            procs = [sim.process(worker(sim, d)) for d in (1.0, 3.0, 2.0)]
            values = yield sim.all_of(procs)
            return (values, sim.now)

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == ([1.0, 3.0, 2.0], 3.0)

    def test_all_of_empty_fires_immediately(self, sim):
        def parent(sim):
            values = yield sim.all_of([])
            return values

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == []

    def test_any_of_returns_first(self, sim):
        def worker(sim, delay):
            yield sim.timeout(delay)
            return delay

        def parent(sim):
            procs = [sim.process(worker(sim, d)) for d in (5.0, 1.0, 3.0)]
            event, value = yield sim.any_of(procs)
            return (value, sim.now)

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == (1.0, 1.0)

    def test_any_of_empty_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.any_of([])

    def test_all_of_propagates_failure(self, sim):
        def ok(sim):
            yield sim.timeout(1.0)

        def bad(sim):
            yield sim.timeout(2.0)
            raise ValueError("nope")

        def parent(sim):
            try:
                yield sim.all_of([sim.process(ok(sim)), sim.process(bad(sim))])
            except ValueError:
                return "failed"

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == "failed"
