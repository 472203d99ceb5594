"""Unit + property tests for the typed event kernel.

Covers the engine pieces (kind registry, the kernel's heapq heap,
counters, handlers, injected RNG) plus the adapter guarantees: random
event soups dispatch in exactly the order a sort by ``(time, submission
index)`` computed in the test predicts, seeded RNG injection is
reproducible, empty-heap and interrupt edge cases behave, and a pinned
digest guards a whole workflow trace byte-for-byte.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hpc.event import Interrupt, Simulator
from repro.hpc.kernel import (
    KERNEL_EVENT_KINDS,
    EventKernel,
    KernelCounters,
    event_kind_code,
    event_kind_name,
)
from repro.hpc.network import Network

TIMER = event_kind_code("timer")


def _drain(engine: EventKernel) -> None:
    while len(engine):
        engine.dispatch_next()


def _recording_kernel() -> tuple[EventKernel, list]:
    """A kernel whose every built-in kind appends its payload to a log."""
    seen: list = []
    kernel = EventKernel()
    for name in ("control", "timer", "compute", "transfer", "staging"):
        kernel.on(name, seen.append)
    return kernel, seen


class TestEventKindRegistry:
    def test_builtin_kinds_registered_in_order(self):
        names = list(KERNEL_EVENT_KINDS)
        assert names[:5] == ["control", "timer", "compute", "transfer", "staging"]

    def test_codes_round_trip(self):
        for code, name in enumerate(list(KERNEL_EVENT_KINDS)[:5]):
            assert event_kind_code(name) == code
            assert event_kind_name(code) == name

    def test_every_kind_has_description(self):
        assert all(desc.strip() for desc in KERNEL_EVENT_KINDS.values())

    def test_unknown_kind_raises(self):
        with pytest.raises(SimulationError):
            event_kind_code("no-such-kind")
        with pytest.raises(SimulationError):
            event_kind_name(10_000)


def _array_payload(i: int) -> np.ndarray:
    return np.array([i, i])


def _reference_payload(i: int) -> object:
    return type("Ref", (), {"i": i})()


@pytest.fixture(params=[_array_payload, _reference_payload],
                ids=["array", "reference"])
def make_payload(request):
    """Payloads ``<`` cannot order: arrays compare elementwise (no truth
    value) and plain references raise ``TypeError``. The heap must settle
    every comparison on ``(time, seq)`` before it would reach them."""
    return request.param


def _same(seen: list, expected: list) -> bool:
    return len(seen) == len(expected) and all(
        a is b for a, b in zip(seen, expected))


class TestEventHeap:
    def test_empty_heap_peeks_inf(self, make_payload):
        kernel, _seen = _recording_kernel()
        assert len(kernel) == 0
        assert kernel.peek() == float("inf")
        kernel.schedule(1.0, TIMER, make_payload(0))
        _drain(kernel)
        assert len(kernel) == 0
        assert kernel.peek() == float("inf")

    def test_pop_empty_raises(self, make_payload):
        engine, _seen = _recording_kernel()
        with pytest.raises(SimulationError, match="empty"):
            engine.dispatch_next()
        engine.schedule(1.0, TIMER, make_payload(0))
        engine.dispatch_next()
        with pytest.raises(SimulationError, match="empty"):
            engine.dispatch_next()

    def test_pops_in_time_order(self, make_payload):
        engine, seen = _recording_kernel()
        payloads = {t: make_payload(int(t)) for t in [5.0, 1.0, 3.0, 2.0, 4.0]}
        for t, payload in payloads.items():
            engine.schedule(t, TIMER, payload)
        times = []
        while len(engine):
            engine.dispatch_next()
            times.append(engine.now)
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _same(seen, [payloads[t] for t in times])

    def test_ties_pop_in_submission_order(self, make_payload):
        # The documented Simulator.schedule tie-breaking contract: seq
        # preserves submission order at equal timestamps, across kinds.
        kernel, seen = _recording_kernel()
        payloads = [make_payload(i) for i in range(10)]
        for i, payload in enumerate(payloads):
            kernel.schedule(7.0, i % 5, payload)
        _drain(kernel)
        assert _same(seen, payloads)

    def test_seq_monotonic_across_mixed_pushes(self, make_payload):
        kernel = EventKernel()
        s1 = kernel.schedule(2.0, 0, make_payload(1))
        s2 = kernel.schedule(1.0, 1, make_payload(2))
        s3 = kernel.schedule(2.0, 2, make_payload(3))
        assert s1 < s2 < s3

    def test_payloads_are_never_compared(self):
        # Equal times and uncomparable payloads: the unique seq settles
        # every comparison before the tuple reaches the payload.
        kernel, seen = _recording_kernel()
        a, b = object(), {"x": 1}
        kernel.schedule(1.0, TIMER, a)
        kernel.schedule(1.0, TIMER, b)
        _drain(kernel)
        assert seen == [a, b]


class TestHeapEquivalence:
    """Dispatch order equals a sort by ``(time, submission index)``
    computed independently in the test."""

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.floats(0.0, 20.0), st.integers(0, 4)),
                    min_size=1, max_size=80))
    def test_random_soups_pop_identically(self, records):
        kernel, seen = _recording_kernel()
        for index, (t, kind) in enumerate(records):
            kernel.schedule(t, kind, index)
        _drain(kernel)
        expected = sorted(range(len(records)),
                          key=lambda i: (records[i][0], i))
        assert seen == expected
        assert kernel.now == max(t for t, _ in records)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(st.floats(0.0, 10.0), st.booleans()),
                    min_size=1, max_size=60),
           st.integers(0, 2**32 - 1))
    def test_interleaved_push_pop_identical(self, ops, seed):
        rng = np.random.default_rng(seed)
        engine, seen = _recording_kernel()
        pending: list[tuple[float, int]] = []
        expected = []
        index = 0
        for t, do_pop in ops:
            if do_pop and pending:
                nxt = min(pending)
                pending.remove(nxt)
                expected.append(nxt[1])
                engine.dispatch_next()
                assert engine.now == nxt[0]
            else:
                when = engine.now + t + float(rng.uniform(0.0, 5.0))
                engine.schedule(when, index % 5, index)
                pending.append((when, index))
                index += 1
        expected.extend(i for _, i in sorted(pending))
        _drain(engine)
        assert seen == expected


class TestKernelCounters:
    def test_counters_start_at_zero(self):
        c = KernelCounters()
        assert c.total_scheduled == 0
        assert c.total_processed == 0
        assert c.as_dict()["named"] == {}

    def test_named_counters_accumulate(self):
        c = KernelCounters()
        c.inc("ranks", 64)
        c.inc("ranks", 36)
        c.inc("checkpoints")
        assert c.named == {"ranks": 100, "checkpoints": 1}

    def test_kernel_tallies_by_kind(self):
        kernel, _seen = _recording_kernel()
        kernel.schedule(1.0, TIMER, None)
        for payload in (1, 2, 3):
            kernel.schedule(2.0, event_kind_code("compute"), payload)
        assert kernel.counters.scheduled_by_kind()["timer"] == 1
        assert kernel.counters.scheduled_by_kind()["compute"] == 3
        assert kernel.counters.total_processed == 0
        _drain(kernel)
        assert kernel.counters.processed_by_kind()["compute"] == 3
        assert kernel.counters.total_processed == 4


class TestEventKernel:
    def test_schedule_in_past_raises(self):
        kernel, _seen = _recording_kernel()
        kernel.schedule(5.0, TIMER, None)
        _drain(kernel)
        assert kernel.now == 5.0
        with pytest.raises(SimulationError, match="in the past"):
            kernel.schedule(1.0, TIMER, None)

    def test_run_until_past_raises(self):
        # Simulator.run is the kernel's drain loop: a horizon behind the
        # kernel clock is refused before it dispatches or moves anything.
        sim = Simulator()
        sim.timeout(3.0)
        sim.timeout(8.0)
        sim.run(until=5.0)
        kernel = sim.kernel
        processed = kernel.counters.total_processed
        with pytest.raises(SimulationError, match="in the past"):
            sim.run(until=1.0)
        assert kernel.now == 5.0
        assert kernel.peek() == 8.0
        assert kernel.counters.total_processed == processed

    def test_missing_handler_raises(self):
        engine = EventKernel()
        engine.schedule(1.0, TIMER, None)
        with pytest.raises(SimulationError, match="no handler"):
            engine.dispatch_next()

    def test_handlers_are_routed_by_kind(self):
        calls = []
        kernel = EventKernel()
        kernel.on("timer", lambda p: calls.append(("timer", p)))
        kernel.on(event_kind_code("staging"), lambda p: calls.append(("staging", p)))
        kernel.schedule(1.0, event_kind_code("staging"), "s")
        kernel.schedule(1.0, TIMER, "t")
        _drain(kernel)
        assert calls == [("staging", "s"), ("timer", "t")]

    def test_injected_rng_is_reproducible(self):
        draws = []

        def sampler(kernel):
            def handler(payload):
                draws.append(float(kernel.rng.uniform()))
            return handler

        results = []
        for _ in range(2):
            draws.clear()
            kernel = EventKernel(rng=1234)
            kernel.on("timer", sampler(kernel))
            for t in (1.0, 2.0, 3.0):
                kernel.schedule(t, TIMER, None)
            _drain(kernel)
            results.append(list(draws))
        assert results[0] == results[1]
        assert len(results[0]) == 3

    def test_rng_accepts_generator_instance(self):
        gen = np.random.default_rng(7)
        kernel = EventKernel(rng=gen)
        assert kernel.rng is gen


class TestSimulatorTieBreakRegression:
    """Same-timestamp events preserve submission order through the
    Simulator adapter, and a pinned workflow trace stays byte-identical."""

    @staticmethod
    def _scenario():
        sim = Simulator()
        order = []

        def worker(sim, tag, delay):
            yield sim.timeout(delay)
            order.append((tag, sim.now))

        # Deliberate timestamp collisions: three waves landing at t=1.0,
        # t=2.0 and t=1.0 again, interleaved at submission time.
        for i, delay in enumerate([1.0, 2.0, 1.0, 2.0, 1.0, 1.0]):
            sim.process(worker(sim, i, delay))
        sim.run()
        return order

    def test_submission_order_at_equal_timestamps(self):
        order = self._scenario()
        assert order == [(0, 1.0), (2, 1.0), (4, 1.0), (5, 1.0),
                         (1, 2.0), (3, 2.0)]

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=30))
    def test_event_soup_identical_orderings_and_clocks(self, delays):
        log = []
        sim = Simulator()

        def worker(sim, tag, delay):
            yield sim.timeout(delay)
            log.append((tag, sim.now))

        for i, d in enumerate(delays):
            sim.process(worker(sim, i, d))
        sim.run()
        # Every process starts at t=0 in submission order, so its timeout
        # is submitted in that order too: ties fall back to the index.
        expected = sorted(((i, d) for i, d in enumerate(delays)),
                          key=lambda rec: (rec[1], rec[0]))
        assert log == expected
        assert sim.now == max(delays)

    # SHA-256 of the ``_quickstart("global", 6, 42)`` run's trace JSONL
    # and ``result_to_json`` output, captured before the kernel moved to
    # a single heapq heap.  Any change to event ordering moves them.
    GOLDEN_TRACE_SHA256 = (
        "1a1bedfc649f41708869f03e47a173395be50c6e3eb953aae52341303a851fb2"
    )
    GOLDEN_RESULT_SHA256 = (
        "19fcf7d916b8a4edcc872e27e425834ea1317a81bb59aaa9a96616c1fad0d076"
    )

    def test_workflow_trace_matches_pinned_digest(self, tmp_path):
        from repro.__main__ import _quickstart
        from repro.observability.tracer import Tracer
        from repro.workflow.driver import CoupledWorkflow
        from repro.workflow.report import result_to_json

        config, trace = _quickstart("global", 6, 42)
        tracer = Tracer()
        result = CoupledWorkflow(config, trace, tracer=tracer).run()
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(path)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == self.GOLDEN_TRACE_SHA256)
        assert (hashlib.sha256(result_to_json(result).encode()).hexdigest()
                == self.GOLDEN_RESULT_SHA256)


class TestAdapterIntegration:
    """The Simulator adapter exposes the kernel without changing semantics."""

    def test_simulator_owns_a_kernel(self):
        sim = Simulator()
        assert isinstance(sim.kernel, EventKernel)
        assert sim.kernel.peek() == float("inf")

    def test_timeout_kinds_reach_the_counters(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1.0)
            yield sim.timeout(1.0, kind="compute")
            yield sim.timeout(1.0, kind="staging")

        sim.process(proc(sim))
        sim.run()
        by_kind = sim.kernel.counters.processed_by_kind()
        assert by_kind["timer"] == 1
        assert by_kind["compute"] == 1
        assert by_kind["staging"] == 1
        assert by_kind["control"] >= 1  # process start + resumes

    def test_network_events_are_transfer_kind(self):
        sim = Simulator()
        net = Network(sim)
        net.add_link("sim", "staging", bandwidth=1e9, latency=1e-6)
        done = net.transfer("sim", "staging", 1e9)
        sim.run(done)
        assert sim.kernel.counters.processed_by_kind()["transfer"] >= 2

    def test_interrupt_edge_case_on_kernel_path(self):
        sim = Simulator()

        def sleeper(sim):
            try:
                yield sim.timeout(100.0, kind="compute")
            except Interrupt as i:
                return ("interrupted", i.cause, sim.now)

        def interrupter(sim, victim):
            yield sim.timeout(2.0)
            victim.interrupt("rebalance")

        victim = sim.process(sleeper(sim))
        sim.process(interrupter(sim, victim))
        sim.run()
        assert victim.value == ("interrupted", "rebalance", 2.0)
        # run() drains to exhaustion: the detached compute event still
        # popped (and was counted) even though its waiter was gone.
        assert len(sim.kernel) == 0
        assert sim.now == 100.0
        assert sim.kernel.counters.processed_by_kind()["compute"] == 1

    def test_seeded_simulator_rng_injection(self):
        a = Simulator(rng=99).rng.uniform(size=4)
        b = Simulator(rng=99).rng.uniform(size=4)
        assert np.array_equal(a, b)
