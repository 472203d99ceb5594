"""The operational state the Monitor hands to the Adaptation Engine.

One :class:`OperationalState` snapshot per adaptation opportunity,
carrying exactly the quantities referenced by the paper's policy
formulations (Table 1): data sizes, per-rank memory availability,
estimated execution/transfer times, staging occupancy, and core counts.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from repro.errors import PolicyError

__all__ = ["OperationalState"]

#: The fields a state may never hold negative, in the order they are
#: checked (the first offender names the error).
_NON_NEGATIVE = (
    "data_bytes",
    "rank_data_bytes",
    "rank_memory_available",
    "analysis_work",
    "est_insitu_time",
    "est_intransit_time",
    "est_intransit_remaining",
    "staging_memory_total",
    "staging_memory_used",
    "est_next_sim_time",
    "est_send_time",
    "est_remaining_sim_time",
)


def _check(fields: dict[str, Any], non_negative: Iterable[str] = _NON_NEGATIVE) -> None:
    """Raise :class:`PolicyError` unless ``fields`` make a valid state.

    Dimension, core rate and core counts are always checked; of the
    non-negative fields, only those named in ``non_negative``.
    """
    ndim = fields["ndim"]
    if ndim not in (1, 2, 3):
        raise PolicyError(f"ndim must be 1, 2 or 3, got {ndim}")
    core_rate = fields["core_rate"]
    if core_rate <= 0:
        raise PolicyError(f"core_rate must be positive, got {core_rate}")
    active = fields["staging_active_cores"]
    if fields["sim_cores"] < 1 or active < 1:
        raise PolicyError("core counts must be >= 1")
    if active > fields["staging_total_cores"]:
        raise PolicyError(
            f"active staging cores {active} exceed "
            f"total {fields['staging_total_cores']}"
        )
    for name in non_negative:
        if fields[name] < 0:
            raise PolicyError(f"{name} must be non-negative")


@dataclass(frozen=True)
class OperationalState:
    """Snapshot of the workflow at one time step.

    Attributes map onto Table 1 of the paper:

    - ``data_bytes`` -- S_data (full-resolution output of this step);
    - ``rank_data_bytes`` -- S_data share on the most loaded rank (the
      binding constraint for in-situ reduction);
    - ``rank_memory_available`` -- Mem_available on that rank;
    - ``analysis_work`` -- work units to analyse this step at full
      resolution (scales T_insitu and T_intransit);
    - ``est_insitu_time`` -- T_insitu(N, S_data);
    - ``est_intransit_time`` -- T_intransit(M, S_data);
    - ``est_intransit_remaining`` -- T_intransit_remaining (queued+running);
    - ``est_send_time`` -- T_sd(S_data);
    - ``est_next_sim_time`` -- T_{i+1}_sim(N);
    - ``sim_cores``/``staging_active_cores``/``staging_total_cores`` --
      N, M, and the static staging preallocation;
    - ``staging_memory_total``/``staging_memory_used`` -- Eq. 10's
      constraint inputs;
    - ``insitu_memory_ok``/``intransit_memory_ok`` -- Eq. 8's resource
      feasibility bits;
    - ``staging_busy`` -- whether in-transit cores are occupied (Fig. 4);
    - ``staging_reachable`` -- False during a total staging blackout
      (every core failed); the engine then degrades to in-situ placement.
    """

    step: int
    ndim: int
    core_rate: float

    # Application layer
    data_bytes: float
    rank_data_bytes: float
    rank_memory_available: float
    analysis_work: float

    # Middleware layer
    sim_cores: int
    staging_active_cores: int
    est_insitu_time: float
    est_intransit_time: float
    est_intransit_remaining: float
    staging_busy: bool
    insitu_memory_ok: bool
    intransit_memory_ok: bool

    # Resource layer
    staging_total_cores: int
    staging_memory_total: float
    staging_memory_used: float
    est_next_sim_time: float
    est_send_time: float
    # Estimated simulation compute still ahead of us (steps remaining x
    # expected step time).  Eq. 6 minimizes the max over the two pipelines:
    # in-transit work beyond this horizon cannot be hidden and extends the
    # end-to-end time directly.
    est_remaining_sim_time: float = float("inf")
    # False only while fault injection has killed every staging core.
    staging_reachable: bool = True

    def __post_init__(self) -> None:
        _check(self.__dict__)

    @classmethod
    def _from_fields(cls, fields: dict[str, Any]) -> "OperationalState":
        """A state from a dict of every field, checked by :func:`_check`.

        Fills the instance dict in one update instead of the dataclass
        constructor's one frozen ``__setattr__`` per field.
        """
        _check(fields)
        state = object.__new__(cls)
        # From items, not from the dict: updating an empty instance dict
        # from a dict clones that dict's oversized key table instead of
        # sharing the class's, and every snapshot the Monitor keeps would
        # take about 2.6x the memory.
        state.__dict__.update(fields.items())
        return state

    def _derive(self, **changes: Any) -> "OperationalState":
        """This state with ``changes`` applied, checked as the
        constructor would check it.

        Copies this state's ``__dict__`` (sharing its key table).  Every
        other field comes from this already valid state, so of the
        non-negative fields only the changed ones are checked.
        """
        fields = self.__dict__.copy()
        fields.update(changes)
        _check(fields, [name for name in _NON_NEGATIVE if name in changes])
        state = object.__new__(type(self))
        object.__setattr__(state, "__dict__", fields)
        return state

    def with_reduction(self, factor: int) -> "OperationalState":
        """The state as seen after down-sampling by ``factor``.

        The cross-layer execution order (application first) means the
        resource and middleware mechanisms must observe the *reduced*
        data size and analysis cost.  Times estimated proportionally.
        """
        if factor < 1:
            raise PolicyError(f"factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        shrink = 1.0 / factor**self.ndim
        return self._derive(
            data_bytes=self.data_bytes * shrink,
            rank_data_bytes=self.rank_data_bytes * shrink,
            analysis_work=self.analysis_work * shrink,
            est_insitu_time=self.est_insitu_time * shrink,
            est_intransit_time=self.est_intransit_time * shrink,
            est_send_time=self.est_send_time * shrink,
        )
