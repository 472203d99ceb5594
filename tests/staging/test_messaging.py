"""Tests for the retry/backoff runner."""

import pytest

from repro.errors import StagingError
from repro.hpc.event import Simulator
from repro.staging.messaging import RetryPolicy, retry_with_backoff


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

