"""Unit + property tests for the typed event kernel.

Covers the engine pieces (kind registry, the kernel's heapq heap of
``(time, seq, kind, func, args)`` records, counters, injected RNG) plus
the adapter guarantees: random event soups dispatch in exactly the order
a sort by ``(time, submission index)`` computed in the test predicts,
seeded RNG injection is reproducible, empty-heap and interrupt edge
cases behave, a pinned digest guards a whole workflow trace
byte-for-byte, and pinned per-kind counters guard its event traffic.

The kernel has no drain loop of its own: every test that dispatches
records drains them through ``Simulator.run``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hpc.event import Interrupt, Simulator
from repro.hpc.kernel import (
    COMPUTE,
    CONTROL,
    KERNEL_EVENT_KINDS,
    STAGING,
    TENANT,
    TIMER,
    TRANSFER,
    EventKernel,
    KernelCounters,
    event_kind_code,
    event_kind_name,
)
from repro.hpc.network import Network
from tests.observability.jsonl import to_jsonl


def _recording_sim() -> tuple[Simulator, EventKernel, list]:
    """A simulator, its kernel, and a log the scheduled records append to.

    Records scheduled with :func:`_schedule` append ``(now, payload)``
    to the log when they fire.
    """
    sim = Simulator()
    return sim, sim.kernel, []


def _schedule(kernel: EventKernel, seen: list, when: float, kind: int,
              payload) -> int:
    return kernel.schedule(
        when, kind, lambda p: seen.append((kernel.now, p)), (payload,))


def _noop(*_args) -> None:
    pass


def _payloads(seen: list) -> list:
    return [payload for _now, payload in seen]


class TestEventKindRegistry:
    def test_kinds_registered_in_order(self):
        names = list(KERNEL_EVENT_KINDS)
        assert names == [
            "control", "timer", "compute", "transfer", "staging", "tenant"]

    def test_codes_round_trip(self):
        for code, name in enumerate(KERNEL_EVENT_KINDS):
            assert event_kind_code(name) == code
            assert event_kind_name(code) == name

    def test_constants_are_the_codes(self):
        constants = (CONTROL, TIMER, COMPUTE, TRANSFER, STAGING, TENANT)
        assert constants == tuple(
            event_kind_code(name) for name in KERNEL_EVENT_KINDS)

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
        sim, kernel, seen = _recording_sim()
        assert len(kernel) == 0
        assert kernel.peek() == float("inf")
        _schedule(kernel, seen, 1.0, TIMER, make_payload(0))
        sim.run()
        assert len(seen) == 1
        assert len(kernel) == 0
        assert kernel.peek() == float("inf")

    def test_pop_empty_raises(self, make_payload):
        # Draining an empty heap towards an event that never fires is
        # an error, before and after the heap held a record.
        sim, kernel, seen = _recording_sim()
        with pytest.raises(SimulationError, match="drained"):
            sim.run(sim.event("never"))
        _schedule(kernel, seen, 1.0, TIMER, make_payload(0))
        sim.run()
        assert len(seen) == 1
        with pytest.raises(SimulationError, match="drained"):
            sim.run(sim.event("never"))

    def test_pops_in_time_order(self, make_payload):
        sim, kernel, seen = _recording_sim()
        payloads = {t: make_payload(int(t)) for t in [5.0, 1.0, 3.0, 2.0, 4.0]}
        for t, payload in payloads.items():
            _schedule(kernel, seen, t, TIMER, payload)
        sim.run()
        times = [now for now, _payload in seen]
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _same(_payloads(seen), [payloads[t] for t in times])

    def test_ties_pop_in_submission_order(self, make_payload):
        # The documented Simulator.schedule tie-breaking contract: seq
        # preserves submission order at equal timestamps, across kinds.
        sim, kernel, seen = _recording_sim()
        payloads = [make_payload(i) for i in range(10)]
        for i, payload in enumerate(payloads):
            _schedule(kernel, seen, 7.0, i % 5, payload)
        sim.run()
        assert _same(_payloads(seen), payloads)

    def test_seq_monotonic_across_mixed_pushes(self, make_payload):
        kernel = EventKernel()
        s1 = kernel.schedule(2.0, 0, _noop, (make_payload(1),))
        s2 = kernel.schedule(1.0, 1, _noop, (make_payload(2),))
        s3 = kernel.schedule(2.0, 2, _noop, (make_payload(3),))
        assert s1 < s2 < s3

    def test_payloads_are_never_compared(self):
        # Equal times, distinct funcs and uncomparable args: the unique
        # seq settles every comparison before the tuple reaches the
        # record's func or args.
        sim, kernel, _seen = _recording_sim()
        calls = []
        a, b = object(), {"x": 1}
        kernel.schedule(1.0, TIMER, calls.append, (a,))
        kernel.schedule(1.0, TIMER, lambda p: calls.append(p), (b,))
        sim.run()
        assert calls == [a, b]


class TestHeapEquivalence:
    """Dispatch order equals a sort by ``(time, submission index)``
    computed independently in the test."""

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.floats(0.0, 20.0), st.integers(0, 4)),
                    min_size=1, max_size=80))
    def test_random_soups_pop_identically(self, records):
        sim, kernel, seen = _recording_sim()
        for index, (t, kind) in enumerate(records):
            _schedule(kernel, seen, t, kind, index)
        sim.run()
        expected = sorted(range(len(records)),
                          key=lambda i: (records[i][0], i))
        assert _payloads(seen) == expected
        assert kernel.now == max(t for t, _ in records)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(st.floats(0.0, 10.0), st.booleans()),
                    min_size=1, max_size=60),
           st.integers(0, 2**32 - 1))
    def test_interleaved_push_pop_identical(self, ops, seed):
        # A "pop" runs the simulator up to the earliest pending time:
        # exactly the records at that time fire, in submission order.
        rng = np.random.default_rng(seed)
        sim, kernel, seen = _recording_sim()
        pending: list[tuple[float, int]] = []
        expected = []
        index = 0
        for t, do_pop in ops:
            if do_pop and pending:
                nxt = min(pending)[0]
                due = sorted(rec for rec in pending if rec[0] == nxt)
                for rec in due:
                    pending.remove(rec)
                expected.extend(i for _, i in due)
                sim.run(until=nxt)
                assert kernel.now == nxt
                assert _payloads(seen) == expected
            else:
                when = kernel.now + t + float(rng.uniform(0.0, 5.0))
                _schedule(kernel, seen, when, index % 5, index)
                pending.append((when, index))
                index += 1
        expected.extend(i for _, i in sorted(pending))
        sim.run()
        assert _payloads(seen) == expected


class TestKernelCounters:
    def test_counters_start_at_zero(self):
        c = KernelCounters()
        assert c.total_scheduled == 0
        assert c.total_processed == 0

    def test_kernel_tallies_by_kind(self):
        sim, kernel, seen = _recording_sim()
        _schedule(kernel, seen, 1.0, TIMER, None)
        for payload in (1, 2, 3):
            _schedule(kernel, seen, 2.0, COMPUTE, payload)
        assert kernel.counters.scheduled_by_kind()["timer"] == 1
        assert kernel.counters.scheduled_by_kind()["compute"] == 3
        assert kernel.counters.total_processed == 0
        sim.run()
        assert kernel.counters.processed_by_kind()["compute"] == 3
        assert kernel.counters.total_processed == 4


class TestEventKernel:
    def test_schedule_in_past_raises(self):
        sim, kernel, seen = _recording_sim()
        _schedule(kernel, seen, 5.0, TIMER, None)
        sim.run()
        assert kernel.now == 5.0
        with pytest.raises(SimulationError, match="in the past"):
            _schedule(kernel, seen, 1.0, TIMER, None)

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

    def test_unknown_kind_raises_at_schedule(self):
        # An unregistered code fails where it is scheduled, naming the
        # code, and leaves neither a record nor a tally behind.
        kernel = EventKernel()
        before = kernel.counters.as_dict()
        with pytest.raises(SimulationError, match="unknown event kind code 99"):
            kernel.schedule(1.0, 99, _noop)
        assert len(kernel) == 0
        assert kernel.counters.as_dict() == before

    @pytest.mark.parametrize("code", [-1, -6, -7])
    def test_negative_kind_raises_at_schedule(self, code):
        # Negative codes are not counted from the end of the tallies.
        kernel = EventKernel()
        before = kernel.counters.as_dict()
        with pytest.raises(SimulationError,
                           match=f"unknown event kind code {code}"):
            kernel.schedule(1.0, code, _noop)
        assert len(kernel) == 0
        assert kernel.counters.as_dict() == before

    def test_records_run_their_func_and_count_their_kind(self):
        calls = []
        sim = Simulator()
        kernel = sim.kernel
        kernel.schedule(1.0, STAGING,
                        lambda p: calls.append(("staging", p)), ("s",))
        kernel.schedule(1.0, TIMER, lambda p: calls.append(("timer", p)), ("t",))
        sim.run()
        assert calls == [("staging", "s"), ("timer", "t")]
        processed = kernel.counters.processed_by_kind()
        assert processed["staging"] == processed["timer"] == 1
        assert kernel.counters.total_processed == 2


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

    def test_workflow_trace_matches_pinned_digest(self):
        from repro.__main__ import _quickstart
        from repro.observability.tracer import Tracer
        from repro.workflow.driver import CoupledWorkflow
        from repro.workflow.report import result_to_json

        config, trace = _quickstart("global", 6, 42)
        tracer = Tracer()
        result = CoupledWorkflow(config, trace, tracer=tracer).run()
        assert (hashlib.sha256(to_jsonl(tracer).encode()).hexdigest()
                == self.GOLDEN_TRACE_SHA256)
        assert (hashlib.sha256(result_to_json(result).encode()).hexdigest()
                == self.GOLDEN_RESULT_SHA256)


def _tallies(scheduled: dict[str, int]) -> dict:
    """``as_dict()`` of a drained kernel: every scheduled event processed."""
    return {"scheduled": scheduled, "processed": dict(scheduled)}


class TestPinnedEventCounts:
    """Per-kind kernel tallies of whole runs, captured before records
    carried their callable.  Each callback of a fired event is still one
    ``control`` event; a change to what is scheduled under which kind, or
    to what the drain loop counts, moves these numbers."""

    QUICKSTART = _tallies({"control": 20, "timer": 0, "compute": 10,
                           "transfer": 4, "staging": 2, "tenant": 0})
    FLEET = {
        "fifo": _tallies({"control": 183, "timer": 0, "compute": 51,
                          "transfer": 58, "staging": 29, "tenant": 12}),
        "smallest": _tallies({"control": 177, "timer": 0, "compute": 53,
                              "transfer": 54, "staging": 27, "tenant": 12}),
        "fair_share": _tallies({"control": 177, "timer": 0, "compute": 53,
                                "transfer": 54, "staging": 27, "tenant": 12}),
    }

    def test_quickstart_counters(self):
        from repro.__main__ import _quickstart
        from repro.workflow.driver import CoupledWorkflow

        config, trace = _quickstart("global", 6, 42)
        workflow = CoupledWorkflow(config, trace)
        workflow.run()
        assert workflow.sim.kernel.counters.as_dict() == self.QUICKSTART

    @pytest.mark.parametrize("policy", sorted(FLEET))
    def test_four_tenant_fleet_counters(self, policy):
        from repro.experiments import fig_tenants
        from repro.service import WorkflowService

        service = WorkflowService(
            sim_cores=fig_tenants.POOL_SIM_CORES,
            staging_cores=fig_tenants.POOL_STAGING_CORES,
            policy=policy,
            starvation_wait=fig_tenants.STARVATION_WAIT,
        )
        for index in range(4):
            service.submit(
                f"tenant-{index}", fig_tenants._tenant_config(index),
                fig_tenants._workload(fig_tenants.SEED + index),
                arrival=index * fig_tenants.ARRIVAL_STAGGER,
                user=f"user-{index % 2}",
            )
        service.run()
        assert service.sim.kernel.counters.as_dict() == self.FLEET[policy]


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
            yield sim.timeout(1.0, kind=COMPUTE)
            yield sim.timeout(1.0, kind=STAGING)

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
                yield sim.timeout(100.0, kind=COMPUTE)
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
