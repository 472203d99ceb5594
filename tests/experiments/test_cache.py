"""Tests for the memoized experiment cache (:mod:`repro.experiments.cache`).

The cache's contract is *bit-identity*: a hit, a prefix slice, a stepper
extension, a rebuild and a ``REPRO_NO_CACHE=1`` bypass must all yield
exactly the output of an uncached run.  These tests exercise each path
with small solver configurations so they stay fast.
"""

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    ExperimentCache,
    cache_enabled,
    default_cache,
    reset_default_cache,
)
from repro.experiments.common import SCALES, advection_trace
from repro.experiments.fig1_memory import _gas_stepper, captured_gas_trace
from repro.experiments.fig6_entropy import _density, density_field
from repro.experiments.fig6_entropy import _gas_stepper as _field_stepper
from repro.workload.capture import capture_trace

#: Small, fast solver configuration shared by the trace tests.
SMALL = {"n": 16, "nranks": 4}


def small_stepper():
    return _gas_stepper(**SMALL)


@lru_cache(maxsize=None)
def fresh_trace(nsteps):
    """Uncached ground truth for the small configuration, one run per length."""
    return capture_trace(small_stepper(), nsteps, name="t")


@lru_cache(maxsize=None)
def fresh_field(nsteps):
    """Uncached density field after ``nsteps`` on a 16^3 base grid."""
    stepper = _field_stepper(16)
    stepper.run(nsteps)
    return _density(stepper)


def assert_traces_identical(a, b):
    assert a.ndim == b.ndim
    assert a.nranks == b.nranks
    assert a.bytes_per_cell == b.bytes_per_cell
    assert len(a.steps) == len(b.steps)
    for ra, rb in zip(a.steps, b.steps):
        assert ra.step == rb.step
        assert ra.sim_work == rb.sim_work
        assert ra.cells == rb.cells
        assert ra.data_bytes == rb.data_bytes
        assert ra.memory_bytes == rb.memory_bytes
        assert ra.analysis_intensity == rb.analysis_intensity
        assert np.array_equal(ra.rank_bytes, rb.rank_bytes)


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch):
    """Each test gets a clean default cache and no ambient env settings."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    reset_default_cache()
    yield
    reset_default_cache()


class TestKeying:
    def test_key_depends_on_kind_and_params(self):
        cache = ExperimentCache()
        base = cache.key("trace", n=16)
        assert cache.key("trace", n=16) == base
        assert cache.key("trace", n=17) != base
        assert cache.key("field", n=16) != base

    def test_key_rejects_non_json_params(self):
        # A parameter is keyed by its JSON value, never by its str().
        with pytest.raises(TypeError):
            ExperimentCache().key("trace", n=object())

    def test_cache_enabled_env(self, monkeypatch):
        assert cache_enabled()
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        assert cache_enabled()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert not cache_enabled()

    @pytest.mark.parametrize("value", ["true", "yes", "TRUE", " Yes "])
    def test_cache_disabled_by_word_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NO_CACHE", value)
        assert not cache_enabled()

    @pytest.mark.parametrize("value", ["false", "no", "FALSE", " No "])
    def test_cache_stays_enabled_for_negations(self, monkeypatch, value):
        # Regression: REPRO_NO_CACHE=false used to *disable* the cache
        # (any non-(""/"0") value was treated as truthy).
        monkeypatch.setenv("REPRO_NO_CACHE", value)
        assert cache_enabled()

    def test_unrecognized_value_warns_once_and_keeps_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "maybe")
        monkeypatch.setattr(cache_mod, "_WARNED_NO_CACHE_VALUES", set())
        with pytest.warns(RuntimeWarning, match="REPRO_NO_CACHE"):
            assert cache_enabled()
        # The second lookup with the same value must stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache_enabled()


class TestValueMemo:
    def test_identity_preserving_hit(self):
        cache = ExperimentCache()
        calls = []
        obj = cache.value("v", {"a": 1}, lambda: calls.append(1) or {"x": 2})
        again = cache.value("v", {"a": 1}, lambda: calls.append(1) or {"x": 2})
        assert again is obj
        assert len(calls) == 1

    def test_counters(self):
        cache = ExperimentCache()
        cache.value("v", {"a": 1}, lambda: 1)
        cache.value("v", {"a": 1}, lambda: 1)
        cache.value("v", {"a": 2}, lambda: 2)
        assert cache.misses == 2
        assert cache.hits == 1

    def test_no_cache_recomputes(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ExperimentCache()
        calls = []
        cache.value("v", {"a": 1}, lambda: calls.append(1))
        cache.value("v", {"a": 1}, lambda: calls.append(1))
        assert len(calls) == 2

    def test_advection_trace_shares_default_cache(self):
        assert advection_trace(SCALES[0]) is advection_trace(SCALES[0])

    def test_cached_none_is_a_hit(self):
        # Regression: `stored is not None` as the hit test recomputed a
        # legitimately cached None artifact on every call.
        cache = ExperimentCache()
        calls = []
        assert cache.value("v", {"a": 1}, lambda: calls.append(1)) is None
        assert cache.value("v", {"a": 1}, lambda: calls.append(1)) is None
        assert len(calls) == 1
        assert cache.hits == 1


class TestTraceSessions:
    @settings(deadline=None, max_examples=15, derandomize=True)
    @given(st.lists(st.integers(1, 10), min_size=1, max_size=6))
    @example([8, 12, 5])
    def test_prefix_and_extension_bit_identical(self, requests):
        # One cache serves every request: longer ones advance the live
        # stepper, shorter ones slice the longest capture so far.
        cache = ExperimentCache()
        for nsteps in requests:
            got = cache.trace("t", SMALL, nsteps, small_stepper, name="t")
            assert_traces_identical(got, fresh_trace(nsteps))

    def test_no_cache_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cached_off = captured_gas_trace(nsteps=8, **SMALL)
        monkeypatch.delenv("REPRO_NO_CACHE")
        cached_on = captured_gas_trace(nsteps=8, **SMALL)
        assert_traces_identical(cached_off, cached_on)


class TestFieldSessions:
    def test_extension_bit_identical(self):
        f6_fresh = density_field(n=16, nsteps=6, cache=ExperimentCache())
        cache = ExperimentCache()
        f4 = cache_field = density_field(n=16, nsteps=4, cache=cache)
        f6 = density_field(n=16, nsteps=6, cache=cache)
        assert np.array_equal(f6, f6_fresh)
        assert cache_field is f4  # sanity: same object we captured

    def test_hit_returns_private_copy(self):
        cache = ExperimentCache()
        first = density_field(n=16, nsteps=3, cache=cache)
        second = density_field(n=16, nsteps=3, cache=cache)
        assert np.array_equal(first, second)
        assert first is not second
        second[0, 0, 0] = -1.0  # mutating a result must not poison the cache
        third = density_field(n=16, nsteps=3, cache=cache)
        assert np.array_equal(first, third)

    @settings(deadline=None, max_examples=15, derandomize=True)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    @example([5, 2, 5])
    def test_overshoot_rebuilds(self, requests):
        # Requesting fewer steps than the live stepper has run forces a
        # rebuild from step zero (state cannot be rewound).
        cache = ExperimentCache()
        for nsteps in requests:
            got = density_field(n=16, nsteps=nsteps, cache=cache)
            assert np.array_equal(got, fresh_field(nsteps))


class TestDefaultCache:
    def test_singleton_and_reset(self):
        cache = default_cache()
        assert default_cache() is cache
        reset_default_cache()
        assert default_cache() is not cache
