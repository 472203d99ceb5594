"""Tests for the pub/sub message bus and the retry/backoff runner."""

import pytest

from repro.errors import StagingError
from repro.hpc.event import Simulator
from repro.staging.messaging import MessageBus, RetryPolicy, retry_with_backoff


@pytest.fixture()
def sim():
    return Simulator()


def slow_failing_attempt(sim, duration):
    """Attempt factory whose every attempt burns ``duration`` s, then fails."""

    def attempt(k):
        evt = sim.event(name=f"attempt{k}")

        def driver():
            yield sim.timeout(duration)
            evt.fail(StagingError(f"attempt {k} failed"))

        sim.process(driver())
        return evt

    return attempt


class TestRetryErrorAttribution:
    """Regression: the two retry exit conditions must not be conflated.

    ``retry_with_backoff`` has two failure exits -- the attempt budget ran
    out, or ``policy.timeout`` expired before the budget did.  The buggy
    runner re-checked the timeout *after* the loop, so a final attempt
    that merely consumed simulated time past the deadline turned a clean
    exhaustion into a bogus "retry timeout" report.
    """

    def test_exhaustion_past_timeout_reports_exhaustion(self, sim):
        # Two attempts of 6 s each (plus 0.5 s backoff) end at t=12.5,
        # past the 10 s timeout -- but both configured attempts ran, so
        # this is an exhaustion, not a timeout.
        policy = RetryPolicy(max_attempts=2, base_delay=0.5, timeout=10.0)
        retry_with_backoff(
            sim, slow_failing_attempt(sim, 6.0), policy, describe="op"
        )
        with pytest.raises(StagingError, match="retries exhausted"):
            sim.run()

    def test_timeout_before_attempts_exhausted_reports_timeout(self, sim):
        # Attempt 2 of 4 ends at t=13 and the next backoff would land past
        # the 10 s deadline: a genuine timeout with budget to spare.
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, timeout=10.0)
        retry_with_backoff(
            sim, slow_failing_attempt(sim, 6.0), policy, describe="op"
        )
        with pytest.raises(StagingError, match="retry timeout"):
            sim.run()

    def test_exhaustion_error_chains_the_last_attempt_error(self, sim):
        policy = RetryPolicy(max_attempts=2, base_delay=0.5, timeout=10.0)
        retry_with_backoff(
            sim, slow_failing_attempt(sim, 6.0), policy, describe="op"
        )
        with pytest.raises(StagingError) as excinfo:
            sim.run()
        assert isinstance(excinfo.value.__cause__, StagingError)
        assert "attempt 1 failed" in str(excinfo.value.__cause__)


class TestMessageBus:
    def test_publish_reaches_subscriber(self, sim):
        bus = MessageBus(sim)
        sub = bus.subscribe("memory")

        def consumer(sim):
            msg = yield sub.get()
            return msg

        def producer(sim):
            yield sim.timeout(1.0)
            bus.publish("memory", {"rank": 3, "mb": 250})

        c = sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert c.value == {"rank": 3, "mb": 250}

    def test_fanout_to_all_subscribers(self, sim):
        bus = MessageBus(sim)
        subs = [bus.subscribe("t") for _ in range(3)]
        assert bus.publish("t", "hello") == 3
        received = []

        def consumer(sim, sub):
            msg = yield sub.get()
            received.append(msg)

        for sub in subs:
            sim.process(consumer(sim, sub))
        sim.run()
        assert received == ["hello"] * 3

    def test_publish_without_subscribers(self, sim):
        bus = MessageBus(sim)
        assert bus.publish("nobody", 1) == 0

    def test_messages_ordered(self, sim):
        bus = MessageBus(sim)
        sub = bus.subscribe("t")
        received = []

        def consumer(sim):
            for _ in range(3):
                msg = yield sub.get()
                received.append(msg)

        for i in range(3):
            bus.publish("t", i)
        sim.process(consumer(sim))
        sim.run()
        assert received == [0, 1, 2]

    def test_empty_topic_rejected(self, sim):
        with pytest.raises(StagingError):
            MessageBus(sim).subscribe("")
