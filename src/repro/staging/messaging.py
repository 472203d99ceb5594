"""Bounded retry with exponential backoff for staging operations.

A faulted ingest (a failed or corrupted transfer into the staging area)
is retried under a :class:`RetryPolicy` by :func:`retry_with_backoff`,
which runs the attempts as one simulated process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import StagingError
from repro.hpc.event import Event, Process, Simulator

__all__ = ["RetryPolicy", "retry_with_backoff"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for staging operations.

    Attempt ``k`` (0-based) that fails is retried after
    ``base_delay * backoff_factor ** k`` simulated seconds, up to
    ``max_attempts`` total attempts.  ``timeout`` bounds the whole
    operation (attempts plus backoff) in simulated seconds; exceeding
    either bound raises :class:`~repro.errors.StagingError`.
    """

    max_attempts: int = 4
    base_delay: float = 0.5
    backoff_factor: float = 2.0
    timeout: float = float("inf")

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise StagingError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise StagingError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.backoff_factor < 1.0:
            raise StagingError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.timeout <= 0:
            raise StagingError(f"timeout must be positive, got {self.timeout}")

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after the (0-based) failed ``attempt``."""
        return self.base_delay * self.backoff_factor ** attempt


def retry_with_backoff(
    sim: Simulator,
    attempt: Callable[[int], Event],
    policy: RetryPolicy,
    accept: Callable[[int, Any], bool] | None = None,
    on_retry: Callable[[int, float], None] | None = None,
    describe: str = "staging operation",
) -> Process:
    """Run ``attempt(k)`` under ``policy``; the process's value is the result.

    Each attempt returns a waitable :class:`Event`; the attempt fails when
    the event fails, or when ``accept(k, value)`` returns False (a
    detected corruption rather than a raised error).  ``on_retry(k,
    delay)`` is invoked before each backoff sleep, so callers can emit
    trace events and count retries.  Exhausting ``max_attempts`` or
    ``policy.timeout`` raises :class:`~repro.errors.StagingError`.
    """

    def _runner():
        started = sim.now
        last_error: BaseException | None = None
        # The two exits are distinct: ``timed_out`` is set only when the
        # deadline cut the loop short (before an attempt, or before a
        # backoff sleep).  A final attempt that merely *consumed* time
        # past the deadline still counts as exhaustion -- every
        # configured attempt ran.
        timed_out = False
        attempts_run = 0
        for k in range(policy.max_attempts):
            if sim.now - started >= policy.timeout:
                timed_out = True
                break
            attempts_run += 1
            try:
                value = yield attempt(k)
            except StagingError as error:
                last_error = error
            else:
                if accept is None or accept(k, value):
                    return value
                last_error = StagingError(
                    f"{describe}: attempt {k + 1} rejected (corrupt result)"
                )
            if k + 1 >= policy.max_attempts:
                break
            delay = policy.delay(k)
            if sim.now - started + delay >= policy.timeout:
                timed_out = True
                break
            if on_retry is not None:
                on_retry(k, delay)
            yield sim.timeout(delay)
        if timed_out:
            raise StagingError(
                f"{describe}: retry timeout after {sim.now - started:g}s "
                f"(policy timeout {policy.timeout:g}s, "
                f"{attempts_run} of {policy.max_attempts} attempts ran)"
            ) from last_error
        raise StagingError(
            f"{describe}: retries exhausted after {policy.max_attempts} attempts"
        ) from last_error

    return sim.process(_runner(), name=f"retry({describe})")
