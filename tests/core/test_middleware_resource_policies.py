"""Tests for the middleware (placement) and resource (allocation) policies."""

from repro.core.actions import Placement
from repro.core.policies.middleware import MiddlewarePolicy
from repro.core.policies.resource import ResourcePolicy
from repro.units import GiB, MiB


class TestMiddlewarePolicy:
    def test_case1_only_insitu_memory(self, make_state):
        state = make_state(insitu_memory_ok=True, intransit_memory_ok=False)
        action = MiddlewarePolicy().decide(state)
        assert action.placement is Placement.IN_SITU

    def test_case1_only_intransit_memory(self, make_state):
        state = make_state(insitu_memory_ok=False, intransit_memory_ok=True)
        action = MiddlewarePolicy().decide(state)
        assert action.placement is Placement.IN_TRANSIT

    def test_no_memory_anywhere_falls_back_insitu(self, make_state):
        state = make_state(insitu_memory_ok=False, intransit_memory_ok=False)
        action = MiddlewarePolicy().decide(state)
        assert action.placement is Placement.IN_SITU

    def test_case2_idle_staging_goes_intransit(self, make_state):
        # Fig. 4 ts=1,2: in-transit processors idle -> in-transit, even if
        # the in-transit execution itself is slower than in-situ.
        state = make_state(staging_busy=False, est_insitu_time=0.5,
                           est_intransit_time=8.0)
        action = MiddlewarePolicy().decide(state)
        assert action.placement is Placement.IN_TRANSIT

    def test_case3_busy_insitu_faster(self, make_state):
        # Fig. 4 ts=30: busy staging, in-situ faster than waiting.
        state = make_state(staging_busy=True, est_intransit_remaining=10.0,
                           est_insitu_time=2.0)
        action = MiddlewarePolicy().decide(state)
        assert action.placement is Placement.IN_SITU

    def test_case3_busy_backlog_clears_first(self, make_state):
        state = make_state(staging_busy=True, est_intransit_remaining=1.0,
                           est_insitu_time=5.0)
        action = MiddlewarePolicy().decide(state)
        assert action.placement is Placement.IN_TRANSIT

    def test_decisions_carry_reasons(self, make_state):
        action = MiddlewarePolicy().decide(make_state())
        assert action.reason


class TestResourcePolicy:
    def test_memory_bound(self, make_state):
        # 8 GiB over 128 cores = 64 MiB/core; 1 GiB data -> 16 cores.
        state = make_state(data_bytes=1 * GiB, analysis_work=0.0,
                           est_next_sim_time=100.0)
        action = ResourcePolicy().decide(state)
        assert action.cores == 16

    def test_balance_bound(self, make_state):
        # Work 1e7 at 1e4/core/s with budget (60 + 1) s -> ceil(16.4) = 17.
        state = make_state(data_bytes=1.0, analysis_work=1e7,
                           est_next_sim_time=60.0, est_send_time=1.0)
        action = ResourcePolicy().decide(state)
        assert action.cores == 17

    def test_max_of_bounds(self, make_state):
        state = make_state(data_bytes=1 * GiB, analysis_work=1e7,
                           est_next_sim_time=60.0, est_send_time=1.0)
        action = ResourcePolicy().decide(state)
        assert action.cores == max(16, 17)

    def test_clamped_to_total(self, make_state):
        state = make_state(analysis_work=1e9, est_next_sim_time=1.0,
                           est_send_time=0.0)
        action = ResourcePolicy().decide(state)
        assert action.cores == state.staging_total_cores
        assert "clamped" in action.reason

    def test_zero_budget_uses_all_cores(self, make_state):
        state = make_state(est_next_sim_time=0.0, est_send_time=0.0,
                           data_bytes=1.0, analysis_work=1e6)
        action = ResourcePolicy().decide(state)
        assert action.cores == state.staging_total_cores

    def test_one_core_floor(self, make_state):
        # Both bounds are 0 with no data, no work and no backlog.
        state = make_state(data_bytes=0.0, analysis_work=0.0,
                           est_intransit_remaining=0.0,
                           est_next_sim_time=100.0)
        action = ResourcePolicy().decide(state)
        assert action.cores == 1
        assert action.reason.startswith("memory bound 0, balance bound 0")

    def test_small_data_small_allocation(self, make_state):
        # Fig. 9's start: small data -> ~50 of 256 cores.
        state = make_state(
            data_bytes=200 * MiB,
            analysis_work=2e6,
            est_next_sim_time=50.0,
            est_send_time=0.5,
            staging_total_cores=256,
            staging_active_cores=256,
            staging_memory_total=16 * GiB,
        )
        action = ResourcePolicy().decide(state)
        assert action.cores < 64

    def test_refinement_grows_allocation(self, make_state):
        def decide(data_gib, work):
            state = make_state(
                data_bytes=data_gib * GiB,
                analysis_work=work,
                est_next_sim_time=50.0,
                staging_total_cores=256,
                staging_active_cores=256,
                staging_memory_total=16 * GiB,
            )
            return ResourcePolicy().decide(state).cores

        assert decide(0.5, 1e6) < decide(2.0, 1e7) < decide(8.0, 1e8)
