"""Resource-layer policy: adaptive in-transit allocation (paper Section 4.3).

Minimizes the number of staging cores M subject to:

- *pipeline balance* (Eq. 9): in-transit analysis of step ``i`` should
  finish by the time step ``i+1``'s data arrives, i.e.
  ``T_intransit(M, S_data) <= T_sim_{i+1}(N) + T_sd``;
- *memory* (Eq. 10): staging memory behind the chosen cores must hold the
  step's data.

The "initially determine the minimal number of in-transit cores based on
the size of produced simulation data" step is the memory bound; "if the
in-transit processing is estimated to cost more time than the simulation,
more in-transit cores will be assigned" is the balance bound.  M is
clamped to the physical preallocation.
"""

from __future__ import annotations

import math

from repro.core.actions import SetStagingCores
from repro.core.state import OperationalState
from repro.errors import PolicyError

__all__ = ["ResourcePolicy"]


class ResourcePolicy:
    """Chooses the active staging core count M per step (at least one)."""

    def decide(self, state: OperationalState) -> SetStagingCores:
        """Minimal M meeting Eq. 9 and Eq. 10."""
        memory_per_core = state.staging_memory_total / state.staging_total_cores
        if memory_per_core <= 0:
            raise PolicyError("staging memory per core must be positive")

        # Eq. 10: enough cores that their memory share holds S_data.
        m_memory = math.ceil(state.data_bytes / memory_per_core)

        # Eq. 9: T_intransit(M) <= T_sim_{i+1} + T_sd.  The ideal
        # time-to-solution requires *all* pending in-transit work -- the
        # current backlog plus this step's analysis -- to drain before the
        # next step's data arrives, so the backlog (measured in seconds at
        # the current allocation) is converted back to work units and
        # included.
        backlog_work = (
            state.est_intransit_remaining * state.core_rate * state.staging_active_cores
        )
        budget = state.est_next_sim_time + state.est_send_time
        if budget > 0:
            m_balance = math.ceil(
                (state.analysis_work + backlog_work) / (state.core_rate * budget)
            )
        else:
            m_balance = state.staging_total_cores

        m = max(1, m_memory, m_balance)
        clamped = min(m, state.staging_total_cores)
        reason = (
            f"memory bound {m_memory}, balance bound {m_balance} "
            f"(budget {budget:.2f}s)"
        )
        if clamped < m:
            reason += f"; clamped from {m} to physical {clamped}"
        return SetStagingCores(step=state.step, cores=clamped, reason=reason)
