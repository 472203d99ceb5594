"""Application-layer policy: adaptive data resolution (paper Section 4.1).

Chooses the down-sampling factor ``X`` for the step's output:

    maximize  S_data - f_data_reduce(S_data, X)        (Eq. 1) [*]
    s.t.      Mem_data_reduce(S_data, X) <= Mem_available  (Eq. 2)
              X in {X_1 ... X_n}                        (Eq. 3)

[*] Eq. 1 as printed maximizes the *reduction*; the surrounding text and
Figure 5 make clear the intent is the opposite -- "the adaptive mechanism
correctly selected the minimum down-sampling factor, which produced a
larger data volume at a higher spatial resolution".  We implement the
text's semantics: the smallest feasible factor, i.e. the highest
resolution that fits in memory.

The memory constraint is evaluated on the most loaded rank (reduction is
performed in-situ where the data lives, so the peak rank binds).
"""

from __future__ import annotations

from repro.analysis.downsample import downsample_memory_cost
from repro.core.actions import SetDownsampleFactor
from repro.core.preferences import Objective, UserHints
from repro.core.state import OperationalState
from repro.errors import PolicyError

__all__ = ["ApplicationLayerPolicy"]


class ApplicationLayerPolicy:
    """Selects the down-sampling factor from the hinted set.

    Under the default (resolution-maximizing) objective the smallest
    feasible factor wins; under the minimize-data-movement preference the
    largest acceptable factor wins -- the hint set bounds how much
    resolution the user tolerates losing either way.
    """

    def __init__(self, hints: UserHints,
                 objective: Objective = Objective.MAXIMIZE_DATA_RESOLUTION):
        self.hints = hints
        self.objective = objective

    def decide(self, state: OperationalState) -> SetDownsampleFactor:
        """Pick X for this step given current per-rank memory availability.

        If even the largest acceptable factor does not fit, that largest
        factor is returned (flagged in ``reason``): the reduction must
        still happen with whatever memory headroom exists -- exactly
        Figure 5's step 40, where "the adaptive resolution reaches the
        minimal value".
        """
        factors = sorted(set(self.hints.factors_for_step(state.step)))
        if not factors:
            raise PolicyError(f"no acceptable factors for step {state.step}")
        if self.objective is Objective.MINIMIZE_DATA_MOVEMENT:
            # Largest acceptable factor: its reduce cost is the smallest of
            # the set, so feasibility follows from any factor's feasibility.
            factor = factors[-1]
            return SetDownsampleFactor(
                step=state.step,
                factor=factor,
                reason=(
                    "minimize-data-movement preference: largest acceptable "
                    f"factor {factor}"
                ),
            )
        for factor in factors:
            cost = downsample_memory_cost(state.rank_data_bytes, factor, state.ndim)
            if cost <= state.rank_memory_available:
                return SetDownsampleFactor(
                    step=state.step,
                    factor=factor,
                    reason=(
                        f"smallest feasible factor: reduce cost "
                        f"{cost:.0f} B <= available {state.rank_memory_available:.0f} B"
                    ),
                )
        fallback = factors[-1]
        return SetDownsampleFactor(
            step=state.step,
            factor=fallback,
            reason=(
                f"no hinted factor fits in "
                f"{state.rank_memory_available:.0f} B; forced to max factor "
                f"{fallback}"
            ),
        )
