"""User inputs to the adaptation engine: preferences and hints.

The paper distinguishes *user preferences* ("the objectives that users
expect to achieve, such as minimizing time-to-solution, minimizing data
movement, using highest available data resolution") from *user hints*
("additional information ... toleration to data downsampling, nature of
regions of interest, possible adaptation phases and/or patterns").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import PolicyError

__all__ = ["Objective", "UserHints", "UserPreferences"]


class Objective(enum.Enum):
    """The user-selectable optimization objectives."""

    MINIMIZE_TIME_TO_SOLUTION = "minimize_time_to_solution"
    MINIMIZE_DATA_MOVEMENT = "minimize_data_movement"
    MAXIMIZE_RESOURCE_UTILIZATION = "maximize_resource_utilization"
    MAXIMIZE_DATA_RESOLUTION = "maximize_data_resolution"


@dataclass(frozen=True)
class UserPreferences:
    """The user-defined objective driving root selection in Section 4.4."""

    objective: Objective = Objective.MINIMIZE_TIME_TO_SOLUTION


@dataclass(frozen=True)
class UserHints:
    """Hints consumed by the policies.

    ``downsample_phases`` encodes the paper's phase pattern hint: a list
    of ``(first_step, acceptable_factors)`` pairs; the entry with the
    largest ``first_step <= step`` applies.  Section 5.2.1 uses
    ``[(1, (2, 4)), (21, (2, 4, 8, 16))]`` -- {2,4} for the first half of
    a 40-step run, {2,4,8,16} for the second.

    ``monitor_interval`` is the paper's "every specified number of
    simulation time steps".
    """

    downsample_phases: tuple[tuple[int, tuple[int, ...]], ...] = ((1, (1,)),)
    monitor_interval: int = 1

    def __post_init__(self) -> None:
        if not self.downsample_phases:
            raise PolicyError("downsample_phases must not be empty")
        starts = [start for start, _factors in self.downsample_phases]
        if starts != sorted(starts):
            raise PolicyError(f"phase start steps must be sorted: {starts}")
        for start, factors in self.downsample_phases:
            if not factors:
                raise PolicyError(f"phase at step {start} has no factors")
            if any(f < 1 for f in factors):
                raise PolicyError(f"factors must be >= 1: {factors}")
        if self.monitor_interval < 1:
            raise PolicyError(
                f"monitor_interval must be >= 1, got {self.monitor_interval}"
            )

    def factors_for_step(self, step: int) -> tuple[int, ...]:
        """The acceptable down-sampling factor set at ``step``."""
        chosen = self.downsample_phases[0][1]
        for start, factors in self.downsample_phases:
            if step >= start:
                chosen = factors
            else:
                break
        return chosen
