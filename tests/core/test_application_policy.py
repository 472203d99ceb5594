"""Tests for the application-layer (data resolution) policy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.downsample import downsample_memory_cost
from repro.core.policies.application import ApplicationLayerPolicy
from repro.core.preferences import UserHints
from repro.units import MiB


def policy(phases=((1, (2, 4, 8, 16)),)):
    return ApplicationLayerPolicy(UserHints(downsample_phases=phases))


class TestFactorSelection:
    def test_smallest_factor_when_memory_plentiful(self, make_state):
        state = make_state(rank_data_bytes=10 * MiB, rank_memory_available=100 * MiB)
        action = policy().decide(state)
        assert action.factor == 2

    def test_larger_factor_under_memory_pressure(self, make_state):
        # 100 MiB data in 3-D: factor-2 reduce needs 2*100/8 = 25 MiB,
        # factor-4 needs 2*100/64 ~ 3.1 MiB.
        state = make_state(rank_data_bytes=100 * MiB, rank_memory_available=10 * MiB)
        action = policy().decide(state)
        assert action.factor == 4

    def test_fallback_to_max_factor_when_nothing_fits(self, make_state):
        # Even factor 16 needs 2*100/4096 ~ 0.05 MiB; give less than that.
        state = make_state(rank_data_bytes=100 * MiB,
                           rank_memory_available=0.01 * MiB)
        action = policy().decide(state)
        assert action.factor == 16
        assert "forced" in action.reason

    def test_phase_hint_respected(self, make_state):
        p = policy(phases=((1, (2, 4)), (21, (2, 4, 8, 16))))
        # 100 MiB data: factor-2 needs 25 MiB, factor-4 needs 3.13 MiB,
        # factor-8 needs 0.39 MiB.  With 1 MiB available only factor >= 8
        # fits: first half is forced to 4 (max of its set), second half
        # picks 8.
        tight = dict(rank_data_bytes=100 * MiB, rank_memory_available=1 * MiB)
        early = p.decide(make_state(step=10, **tight))
        late = p.decide(make_state(step=30, **tight))
        assert early.factor == 4  # best available in {2,4}, forced
        assert late.factor == 8

    def test_factor_selected_is_feasible_or_max(self, make_state):
        state = make_state(rank_data_bytes=64 * MiB, rank_memory_available=5 * MiB)
        action = policy().decide(state)
        cost = downsample_memory_cost(state.rank_data_bytes, action.factor, state.ndim)
        feasible = cost <= state.rank_memory_available
        assert feasible or action.factor == 16

    def test_2d_memory_cost_used(self, make_state):
        # In 2-D a factor shrinks by X^2: factor 2 needs 2*100/4 = 50 MiB,
        # factor 4 needs 2*100/16 = 12.5 MiB.
        state = make_state(ndim=2, rank_data_bytes=100 * MiB,
                           rank_memory_available=20 * MiB)
        action = policy().decide(state)
        assert action.factor == 4

    def test_factor_fits_at_exactly_its_reduce_cost(self, make_state):
        # Eq. 2 is an inclusive bound: a factor whose reduce buffers
        # exactly fill the available memory is feasible.
        state = make_state(rank_data_bytes=64 * MiB)
        cost = downsample_memory_cost(64 * MiB, 2, state.ndim)
        fits = make_state(rank_data_bytes=64 * MiB, rank_memory_available=cost)
        assert policy().decide(fits).factor == 2
        short = make_state(rank_data_bytes=64 * MiB,
                           rank_memory_available=cost * (1 - 1e-9))
        assert policy().decide(short).factor == 4

    @given(
        st.floats(1 * MiB, 512 * MiB),
        st.floats(1 * MiB, 1024 * MiB),
    )
    def test_monotonicity_more_memory_never_higher_factor(
        self, data_bytes, available
    ):
        from repro.core.state import OperationalState
        from repro.units import GiB

        def mk(avail):
            return OperationalState(
                step=1, ndim=3, core_rate=1e4,
                data_bytes=data_bytes * 16, rank_data_bytes=data_bytes,
                rank_memory_available=avail, analysis_work=1e6,
                sim_cores=64, staging_active_cores=8,
                est_insitu_time=1.0, est_intransit_time=1.0,
                est_intransit_remaining=0.0, staging_busy=False,
                insitu_memory_ok=True, intransit_memory_ok=True,
                staging_total_cores=8, staging_memory_total=1 * GiB,
                staging_memory_used=0.0, est_next_sim_time=1.0,
                est_send_time=0.1,
            )

        p = policy()
        f_small = p.decide(mk(available)).factor
        f_large = p.decide(mk(available * 2)).factor
        assert f_large <= f_small
