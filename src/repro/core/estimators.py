"""Runtime estimators used by the Monitor.

The policies need predicted execution and transfer times (Table 1's
``T_insitu``, ``T_intransit``, ``T_sd`` ...).  Rather than assuming an
oracle, the Monitor learns rates from observations with exponential
moving averages, seeded from the machine's calibration constants -- the
same information Chombo's embedded performance tools give the paper's
Monitor.
"""

from __future__ import annotations

from repro.errors import PolicyError

__all__ = ["RateEstimator", "TransferEstimator"]


class RateEstimator:
    """EMA estimate of a per-core processing rate (work units / second).

    ``estimate(work, cores)`` predicts wall time for a data-parallel job.
    """

    def __init__(self, initial_rate: float, alpha: float = 0.3):
        if initial_rate <= 0:
            raise PolicyError(f"initial_rate must be positive, got {initial_rate}")
        if not (0 < alpha <= 1):
            raise PolicyError(f"alpha must be in (0, 1], got {alpha}")
        self.rate = float(initial_rate)
        self.alpha = float(alpha)
        self.observations = 0

    def observe(self, work_units: float, cores: int, seconds: float) -> None:
        """Fold in one completed job's measured rate."""
        if seconds <= 0 or cores < 1 or work_units < 0:
            raise PolicyError("invalid observation")
        if work_units == 0:
            return
        measured = work_units / (seconds * cores)
        self.rate = (1 - self.alpha) * self.rate + self.alpha * measured
        self.observations += 1

    def estimate(self, work_units: float, cores: int) -> float:
        """Predicted seconds for ``work_units`` spread over ``cores``."""
        if cores < 1:
            raise PolicyError(f"cores must be >= 1, got {cores}")
        return work_units / (self.rate * cores)


class TransferEstimator:
    """EMA estimate of effective transfer bandwidth plus fixed latency.

    Transfers whose measured time does not exceed the latency floor
    carry no bandwidth information; they are *discarded* rather than
    folded in.  :attr:`discards` counts them, because a link saturated
    at its latency floor otherwise freezes the bandwidth EMA at its
    seed value without any visible symptom.
    """

    def __init__(self, initial_bandwidth: float, latency: float = 0.0,
                 alpha: float = 0.3):
        if initial_bandwidth <= 0:
            raise PolicyError(
                f"initial_bandwidth must be positive, got {initial_bandwidth}"
            )
        if latency < 0:
            raise PolicyError(f"latency must be >= 0, got {latency}")
        if not (0 < alpha <= 1):
            raise PolicyError(f"alpha must be in (0, 1], got {alpha}")
        self.bandwidth = float(initial_bandwidth)
        self.latency = float(latency)
        self.alpha = float(alpha)
        self.observations = 0
        #: Latency-saturated observations dropped without updating the EMA.
        self.discards = 0

    def observe(self, nbytes: float, seconds: float) -> bool:
        """Fold in one completed transfer; False when it was discarded."""
        if seconds <= 0 or nbytes < 0:
            raise PolicyError("invalid observation")
        if nbytes == 0:
            return False
        effective = seconds - self.latency
        if effective <= 0:
            self.discards += 1
            return False
        measured = nbytes / effective
        self.bandwidth = (1 - self.alpha) * self.bandwidth + self.alpha * measured
        self.observations += 1
        return True

    def estimate(self, nbytes: float) -> float:
        """Predicted seconds to move ``nbytes``."""
        if nbytes < 0:
            raise PolicyError(f"nbytes must be >= 0, got {nbytes}")
        return self.latency + nbytes / self.bandwidth
