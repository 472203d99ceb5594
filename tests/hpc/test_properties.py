"""Property-based tests for the event kernel and network invariants."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hpc.event import _PENDING, AllOf, AnyOf, Event, Interrupt, Process, Simulator
from repro.hpc.network import Network


class TestEventKernelProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=30))
    def test_clock_ends_at_max_delay(self, delays):
        sim = Simulator()

        def sleeper(sim, d):
            yield sim.timeout(d)

        for d in delays:
            sim.process(sleeper(sim, d))
        sim.run()
        assert sim.now == pytest.approx(max(delays))

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
                    min_size=1, max_size=20))
    def test_sequential_delays_accumulate(self, pairs):
        sim = Simulator()
        results = {}

        def worker(sim, idx, a, b):
            start = sim.now
            yield sim.timeout(a)
            yield sim.timeout(b)
            results[idx] = sim.now - start

        for i, (a, b) in enumerate(pairs):
            sim.process(worker(sim, i, a, b))
        sim.run()
        for i, (a, b) in enumerate(pairs):
            assert results[i] == pytest.approx(a + b)


class _Boom(Exception):
    """The failure the scripts put into events (their processes catch it)."""


class _Crash(Exception):
    """The failure that ends a script's process."""


_SHARED = 4  # shared events per script
_PROCS = 5  # upper bound on processes per script
_OPS = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from((0.0, 0.5, 1.0, 2.5))),
    st.tuples(st.just("wait"), st.integers(0, _SHARED - 1)),
    st.tuples(st.just("succeed"), st.integers(0, _SHARED - 1)),
    st.tuples(st.just("fail"), st.integers(0, _SHARED - 1)),
    st.tuples(st.just("interrupt"), st.integers(0, _PROCS - 1)),
    st.tuples(st.just("join"), st.integers(0, _PROCS - 1)),
    st.tuples(st.just("all_of"),
              st.lists(st.integers(0, _SHARED - 1), max_size=3)),
    st.tuples(st.just("any_of"),
              st.lists(st.integers(0, _SHARED - 1), min_size=1, max_size=3)),
    st.tuples(st.just("fired"), st.booleans()),
    st.tuples(st.just("crash"), st.just(None)),
    st.tuples(st.just("bad"), st.sampled_from((42, "tick", None))),
)


def _run_script(script):
    """Run generated process scripts; returns every event they made and
    the errors the yields of non-events raised out of ``Simulator.run``."""
    sim = Simulator()
    made: list[Event] = []

    def track(event):
        made.append(event)
        return event

    shared = [track(sim.event(f"shared{i}")) for i in range(_SHARED)]
    procs: list[Process] = []

    def body(index, ops):
        for op, arg in ops:
            try:
                if op == "timeout":
                    yield track(sim.timeout(arg))
                elif op == "wait":
                    yield shared[arg]
                elif op == "succeed":
                    if not shared[arg].triggered:
                        shared[arg].succeed(index)
                elif op == "fail":
                    if not shared[arg].triggered:
                        shared[arg].fail(_Boom(index))
                elif op == "interrupt":
                    if arg < len(procs) and arg != index and procs[arg].is_alive:
                        procs[arg].interrupt(index)
                elif op == "join":
                    if arg < len(procs) and arg != index:
                        yield procs[arg]
                elif op == "all_of":
                    yield track(sim.all_of([shared[i] for i in arg]))
                elif op == "any_of":
                    yield track(sim.any_of([shared[i] for i in arg]))
                elif op == "fired":
                    # An event that fired before the process waits on it.
                    event = track(sim.event("fired"))
                    event.succeed(index) if arg else event.fail(_Boom(index))
                    yield event
                elif op == "crash":
                    raise _Crash(index)
                else:
                    yield arg
            except (Interrupt, _Boom):
                pass
        return index

    for index, ops in enumerate(script):
        procs.append(track(sim.process(body(index, ops), name=f"p{index}")))

    errors = []
    for until in (0.5, 1.0, 2.5, None):
        while True:
            try:
                sim.run(until=until)
                break
            except SimulationError as error:
                errors.append(str(error))
            except (_Crash, Interrupt):
                pass  # a process died with nobody waiting on it
            _check_triggered(made)
        _check_triggered(made)
    return made, errors


def _check_triggered(events):
    for event in events:
        fired = event._value is not _PENDING or event._exception is not None
        assert event.triggered is fired, event
        assert event.ok == (fired and event._exception is None)
        if isinstance(event, Process):
            assert event.is_alive == (not fired)


class TestTriggeredField:
    """``Event.triggered`` is a field every firing path sets; it must
    read exactly as the old ``_value``/``_exception`` property did."""

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(st.lists(st.lists(_OPS, max_size=6), min_size=1, max_size=_PROCS))
    def test_field_matches_its_old_definition(self, script):
        made, errors = _run_script(script)
        # A bad yield raises out of run and leaves its process waiting on
        # nothing, so each script raises at most once.
        for error in errors:
            assert error.endswith("; processes must yield Event instances")
        assert len(errors) <= sum(any(op == "bad" for op, _ in ops) for ops in script)
        assert all(isinstance(e.triggered, bool) for e in made)

    def test_yield_error_text(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(1.0)
            yield 42

        proc = sim.process(bad(sim), name="worker")
        with pytest.raises(SimulationError) as error:
            sim.run()
        assert str(error.value) == (
            "process 'worker' yielded 42; processes must yield Event instances"
        )
        assert proc.is_alive and not proc.triggered

    def test_waiting_on_a_fired_event_is_one_control_event(self):
        sim = Simulator()
        done = sim.event("done").succeed("v")

        def waiter(sim):
            return (yield done)

        proc = sim.process(waiter(sim))
        assert sim.run(until=proc) == "v"
        # Process start, the wake-up for the fired event, and the
        # process-event's own (callback-free) firing schedules nothing.
        assert sim.kernel.counters.processed_by_kind()["control"] == 2

    def test_class_default_and_every_firing_path(self):
        sim = Simulator()
        assert "triggered" not in vars(sim.event())
        assert sim.event().succeed().triggered
        assert sim.event().fail(_Boom()).triggered
        timeout = sim.timeout(1.0)
        combined = [sim.all_of([timeout]), sim.any_of([timeout]), AllOf(sim, [])]

        def ends(sim):
            yield sim.timeout(0.5)

        def dies(sim):
            yield sim.timeout(0.5)
            raise _Boom()

        def watch(sim):
            try:
                yield died
            except _Boom:
                return "caught"

        finished = sim.process(ends(sim))
        died = sim.process(dies(sim))
        watcher = sim.process(watch(sim))
        assert not any(e.triggered for e in (timeout, finished, died, *combined))
        sim.run()
        assert all(e.triggered for e in (timeout, finished, died, *combined))
        assert not died.ok and watcher.value == "caught"


class TestNetworkProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(
            st.tuples(st.floats(1.0, 500.0), st.floats(0.0, 5.0)),
            min_size=1,
            max_size=15,
        ),
        st.floats(10.0, 1000.0),
    )
    def test_all_bytes_delivered_and_bounded(self, flows, bandwidth):
        """Every transfer completes; total time is bounded below by the
        aggregate bytes over the link capacity, and above by the serial
        time plus start offsets."""
        sim = Simulator()
        net = Network(sim)
        net.add_link("a", "b", bandwidth=bandwidth)
        done = []

        def starter(sim, size, delay):
            yield sim.timeout(delay)
            xfer = net.transfer("a", "b", size)
            result = yield xfer
            done.append(result)

        for size, delay in flows:
            sim.process(starter(sim, size, delay))
        sim.run()
        assert len(done) == len(flows)
        total = sum(size for size, _ in flows)
        assert net.total_bytes_moved == pytest.approx(total)
        last_start = max(d for _, d in flows)
        assert sim.now >= total / bandwidth - 1e-6
        assert sim.now <= last_start + total / bandwidth + 1e-5 * len(flows) + 1e-6

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 10), st.floats(10.0, 200.0))
    def test_equal_flows_finish_together(self, n, size):
        sim = Simulator()
        net = Network(sim)
        net.add_link("a", "b", bandwidth=100.0)
        finish = []

        def watch(sim, evt):
            yield evt
            finish.append(sim.now)

        for _ in range(n):
            sim.process(watch(sim, net.transfer("a", "b", size)))
        sim.run()
        assert np.allclose(finish, n * size / 100.0, rtol=1e-9)
