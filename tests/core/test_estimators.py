"""Tests for the EMA rate and transfer estimators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.estimators import RateEstimator, TransferEstimator
from repro.errors import PolicyError


class TestRateEstimator:
    def test_initial_estimate_from_calibration(self):
        est = RateEstimator(initial_rate=100.0)
        assert est.estimate(1000.0, cores=10) == pytest.approx(1.0)

    def test_converges_to_observed_rate(self):
        est = RateEstimator(initial_rate=100.0, alpha=0.5)
        for _ in range(30):
            est.observe(work_units=50.0, cores=1, seconds=1.0)  # rate 50
        assert est.rate == pytest.approx(50.0, rel=1e-3)
        assert est.observations == 30

    def test_zero_work_ignored(self):
        est = RateEstimator(initial_rate=100.0)
        est.observe(0.0, cores=1, seconds=1.0)
        assert est.rate == 100.0
        assert est.observations == 0

    def test_validation(self):
        with pytest.raises(PolicyError):
            RateEstimator(initial_rate=0)
        with pytest.raises(PolicyError):
            RateEstimator(initial_rate=1, alpha=0)
        with pytest.raises(PolicyError):
            RateEstimator(initial_rate=1, alpha=1.5)
        est = RateEstimator(initial_rate=1)
        with pytest.raises(PolicyError):
            est.observe(1.0, cores=0, seconds=1.0)
        with pytest.raises(PolicyError):
            est.observe(1.0, cores=1, seconds=0.0)
        with pytest.raises(PolicyError):
            est.estimate(1.0, cores=0)

    @given(st.floats(1.0, 1e6), st.floats(1.0, 1e6))
    def test_rate_stays_between_extremes(self, initial, observed):
        est = RateEstimator(initial_rate=initial, alpha=0.3)
        est.observe(observed, cores=1, seconds=1.0)
        lo, hi = sorted([initial, observed])
        assert lo - 1e-9 <= est.rate <= hi + 1e-9

    def test_estimate_scales_inverse_cores(self):
        est = RateEstimator(initial_rate=10.0)
        assert est.estimate(100.0, cores=10) == pytest.approx(
            est.estimate(100.0, cores=5) / 2
        )


class TestTransferEstimator:
    def test_initial_estimate(self):
        est = TransferEstimator(initial_bandwidth=100.0, latency=0.5)
        assert est.estimate(1000.0) == pytest.approx(10.5)
        assert est.estimate(0.0) == pytest.approx(0.5)

    def test_learns_effective_bandwidth(self):
        est = TransferEstimator(initial_bandwidth=100.0, latency=0.0, alpha=0.5)
        for _ in range(30):
            est.observe(nbytes=50.0, seconds=1.0)  # 50 B/s observed
        assert est.bandwidth == pytest.approx(50.0, rel=1e-3)

    def test_latency_subtracted_from_observation(self):
        est = TransferEstimator(initial_bandwidth=100.0, latency=1.0, alpha=1.0)
        est.observe(nbytes=100.0, seconds=2.0)  # effective 1 s -> 100 B/s
        assert est.bandwidth == pytest.approx(100.0)

    def test_subliminal_observation_ignored(self):
        # A transfer faster than the latency floor carries no information.
        est = TransferEstimator(initial_bandwidth=100.0, latency=1.0)
        assert est.observe(nbytes=10.0, seconds=0.5) is False
        assert est.bandwidth == 100.0
        assert est.observations == 0

    def test_discards_are_counted(self):
        est = TransferEstimator(initial_bandwidth=100.0, latency=1.0)
        assert est.discards == 0
        est.observe(nbytes=10.0, seconds=0.5)
        est.observe(nbytes=10.0, seconds=1.0)  # exactly at the floor
        assert est.discards == 2
        assert est.observe(nbytes=10.0, seconds=2.0) is True
        assert est.discards == 2
        assert est.observations == 1

    def test_empty_transfer_is_not_a_discard(self):
        est = TransferEstimator(initial_bandwidth=100.0, latency=1.0)
        assert est.observe(nbytes=0.0, seconds=0.5) is False
        assert est.discards == 0
        assert est.observations == 0

    def test_validation(self):
        with pytest.raises(PolicyError):
            TransferEstimator(initial_bandwidth=0)
        with pytest.raises(PolicyError):
            TransferEstimator(initial_bandwidth=1, latency=-1)
        with pytest.raises(PolicyError):
            TransferEstimator(initial_bandwidth=1, alpha=2)
        est = TransferEstimator(initial_bandwidth=1)
        with pytest.raises(PolicyError):
            est.observe(-1.0, seconds=1.0)
        with pytest.raises(PolicyError):
            est.estimate(-1.0)
