"""Tests for user preferences/hints and the operational state."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import AdaptationEngine
from repro.core.mechanisms import Layer
from repro.core.preferences import Objective, UserHints, UserPreferences
from repro.core.state import OperationalState
from repro.errors import PolicyError
from repro.units import GiB, MiB


class TestUserHints:
    def test_paper_phase_pattern(self):
        # Section 5.2.1: {2,4} first half, {2,4,8,16} second half of 40 steps.
        hints = UserHints(downsample_phases=((1, (2, 4)), (21, (2, 4, 8, 16))))
        assert hints.factors_for_step(1) == (2, 4)
        assert hints.factors_for_step(20) == (2, 4)
        assert hints.factors_for_step(21) == (2, 4, 8, 16)
        assert hints.factors_for_step(40) == (2, 4, 8, 16)

    def test_step_before_first_phase_uses_first(self):
        hints = UserHints(downsample_phases=((5, (2, 4)),))
        assert hints.factors_for_step(1) == (2, 4)

    def test_default_is_no_reduction(self):
        assert UserHints().factors_for_step(10) == (1,)

    def test_validation(self):
        with pytest.raises(PolicyError):
            UserHints(downsample_phases=())
        with pytest.raises(PolicyError):
            UserHints(downsample_phases=((10, (2,)), (5, (4,))))
        with pytest.raises(PolicyError):
            UserHints(downsample_phases=((1, ()),))
        with pytest.raises(PolicyError):
            UserHints(downsample_phases=((1, (0,)),))
        with pytest.raises(PolicyError):
            UserHints(monitor_interval=0)

    def test_default_objective(self):
        assert UserPreferences().objective is Objective.MINIMIZE_TIME_TO_SOLUTION


class TestOperationalState:
    def test_validation(self, make_state):
        with pytest.raises(PolicyError):
            make_state(ndim=4)
        with pytest.raises(PolicyError):
            make_state(core_rate=0)
        with pytest.raises(PolicyError):
            make_state(sim_cores=0)
        with pytest.raises(PolicyError):
            make_state(staging_active_cores=256, staging_total_cores=128)
        with pytest.raises(PolicyError):
            make_state(data_bytes=-1)

    def test_with_reduction_scales_sizes(self, make_state):
        state = make_state(data_bytes=1 * GiB, rank_data_bytes=64 * MiB,
                           analysis_work=1e7, ndim=3)
        reduced = state.with_reduction(2)
        assert reduced.data_bytes == pytest.approx(1 * GiB / 8)
        assert reduced.rank_data_bytes == pytest.approx(8 * MiB)
        assert reduced.analysis_work == pytest.approx(1e7 / 8)
        assert reduced.est_insitu_time == pytest.approx(state.est_insitu_time / 8)
        assert reduced.est_send_time == pytest.approx(state.est_send_time / 8)

    def test_with_reduction_2d(self, make_state):
        state = make_state(ndim=2)
        reduced = state.with_reduction(4)
        assert reduced.data_bytes == pytest.approx(state.data_bytes / 16)

    def test_with_reduction_identity(self, make_state):
        state = make_state()
        assert state.with_reduction(1) is state

    def test_with_reduction_preserves_memory_fields(self, make_state):
        state = make_state()
        reduced = state.with_reduction(4)
        assert reduced.rank_memory_available == state.rank_memory_available
        assert reduced.staging_memory_total == state.staging_memory_total
        assert reduced.est_next_sim_time == state.est_next_sim_time

    def test_with_reduction_invalid(self, make_state):
        with pytest.raises(PolicyError):
            make_state().with_reduction(0)


# -- derived states against the checked constructor ----------------------------

_AMOUNT = st.floats(0.0, 1e15, allow_nan=False)
_POSITIVE = st.floats(1e-3, 1e12, allow_nan=False)


@st.composite
def _states(draw):
    total = draw(st.integers(1, 4096))
    return OperationalState(
        step=draw(st.integers(0, 10_000)),
        ndim=draw(st.sampled_from((1, 2, 3))),
        core_rate=draw(_POSITIVE),
        data_bytes=draw(_AMOUNT),
        rank_data_bytes=draw(_AMOUNT),
        rank_memory_available=draw(_AMOUNT),
        analysis_work=draw(_AMOUNT),
        sim_cores=draw(st.integers(1, 1 << 20)),
        staging_active_cores=draw(st.integers(1, total)),
        est_insitu_time=draw(_AMOUNT),
        est_intransit_time=draw(_AMOUNT),
        est_intransit_remaining=draw(_AMOUNT),
        staging_busy=draw(st.booleans()),
        insitu_memory_ok=draw(st.booleans()),
        intransit_memory_ok=draw(st.booleans()),
        staging_total_cores=total,
        staging_memory_total=draw(_POSITIVE),
        staging_memory_used=draw(_AMOUNT),
        est_next_sim_time=draw(_AMOUNT),
        est_send_time=draw(_AMOUNT),
        est_remaining_sim_time=draw(_AMOUNT | st.just(math.inf)),
        staging_reachable=draw(st.booleans()),
    )


def _reduced(state, factor):
    """``with_reduction`` spelled with the checked ``dataclasses.replace``."""
    shrink = 1.0 / factor**state.ndim
    return dataclasses.replace(
        state,
        data_bytes=state.data_bytes * shrink,
        rank_data_bytes=state.rank_data_bytes * shrink,
        analysis_work=state.analysis_work * shrink,
        est_insitu_time=state.est_insitu_time * shrink,
        est_intransit_time=state.est_intransit_time * shrink,
        est_send_time=state.est_send_time * shrink,
    )


def _resized(state, cores):
    """The engine's resource-layer update, via ``dataclasses.replace``."""
    return dataclasses.replace(
        state,
        staging_active_cores=cores,
        est_intransit_time=state.analysis_work / (state.core_rate * cores),
    )


def _assert_same_state(derived, expected):
    assert type(derived) is OperationalState
    for f in dataclasses.fields(OperationalState):
        got, want = getattr(derived, f.name), getattr(expected, f.name)
        assert type(got) is type(want), f.name
        assert got == want, f.name
    assert derived == expected
    with pytest.raises(dataclasses.FrozenInstanceError):
        derived.step = 0


def _same_error(build, reference):
    """``build`` raises the PolicyError ``reference`` raises, same text."""
    with pytest.raises(PolicyError) as expected:
        reference()
    with pytest.raises(PolicyError) as got:
        build()
    assert str(got.value) == str(expected.value)


class TestDerivedStates:
    """Snapshots and derived states skip the dataclass constructor; they
    must still equal what the checked constructor builds, and reject
    what it rejects with the same message."""

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(_states(), st.integers(1, 16))
    def test_with_reduction_matches_replace(self, state, factor):
        _assert_same_state(state.with_reduction(factor), _reduced(state, factor))

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(st.data())
    def test_resource_derivation_matches_replace(self, data):
        state = data.draw(_states())
        cores = data.draw(st.integers(1, state.staging_total_cores))
        derived = state._derive(
            staging_active_cores=cores,
            est_intransit_time=state.analysis_work / (state.core_rate * cores),
        )
        _assert_same_state(derived, _resized(state, cores))

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(_states(), st.sampled_from((Objective.MINIMIZE_TIME_TO_SOLUTION,
                                       Objective.MINIMIZE_DATA_MOVEMENT)))
    def test_engine_chain_matches_replace(self, state, objective):
        """The working state the middleware layer sees in global mode is
        the input reduced, then resized, exactly as ``replace`` builds it."""
        engine = AdaptationEngine(
            preferences=UserPreferences(objective=objective),
            hints=UserHints(downsample_phases=((0, (1, 2, 4)),)),
        )
        assert engine.plan[-1] is Layer.MIDDLEWARE
        seen = []
        decide = engine.middleware.decide
        engine.middleware.decide = lambda working: seen.append(working) or decide(working)
        # Reachable staging, so the middleware layer runs its policy.
        state = dataclasses.replace(state, staging_reachable=True)
        decision = engine.adapt(state)
        expected = _reduced(state, decision.factor)
        if decision.staging_cores is not None:
            expected = _resized(expected, decision.staging_cores)
        [working] = seen
        _assert_same_state(working, expected)

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(_states())
    def test_snapshot_builder_matches_constructor(self, state):
        fields = {f.name: getattr(state, f.name)
                  for f in dataclasses.fields(OperationalState)}
        _assert_same_state(OperationalState._from_fields(fields),
                           OperationalState(**fields))

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(_states(), st.sampled_from((
        ("ndim", 4), ("core_rate", 0.0), ("sim_cores", 0),
        ("staging_active_cores", 0), ("data_bytes", -1.0),
        ("est_remaining_sim_time", -1e-9), ("staging_memory_used", -2.0),
    )))
    def test_snapshot_builder_rejects_like_constructor(self, state, bad):
        fields = {**vars(state), bad[0]: bad[1]}
        _same_error(lambda: OperationalState._from_fields(fields),
                    lambda: OperationalState(**fields))

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(_states(), st.integers(-3, 0))
    def test_bad_factor(self, state, factor):
        with pytest.raises(PolicyError, match=f"^factor must be >= 1, got {factor}$"):
            state.with_reduction(factor)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(_states(), st.integers(1, 8))
    def test_cores_above_total(self, state, excess):
        cores = state.staging_total_cores + excess
        _same_error(lambda: state._derive(staging_active_cores=cores),
                    lambda: dataclasses.replace(state, staging_active_cores=cores))

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(_states(), st.integers(-4, 0))
    def test_cores_below_one(self, state, cores):
        _same_error(lambda: state._derive(staging_active_cores=cores),
                    lambda: dataclasses.replace(state, staging_active_cores=cores))

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(_states(), st.lists(
        st.sampled_from(("data_bytes", "rank_data_bytes", "analysis_work",
                         "est_insitu_time", "est_intransit_time",
                         "est_send_time", "staging_memory_used")),
        min_size=1, max_size=4, unique=True,
    ), st.floats(-1e12, -1e-12))
    def test_negative_changed_field(self, state, names, value):
        changes = {name: value for name in names}
        _same_error(lambda: state._derive(**changes),
                    lambda: dataclasses.replace(state, **changes))
