"""Unit tests for the shared-pool ledger (:class:`TenantScheduler`).

Every mutation must keep exact bookkeeping -- the scheduler is the
service's single source of truth for who holds which staging cores, and
a drift here silently corrupts every tenant's grant.
"""

import pytest

from repro.errors import ServiceError
from repro.service import TenantScheduler
from repro.service.scheduler import MIN_SHARE


class TestConstruction:
    def test_defaults(self):
        s = TenantScheduler(1024, 64)
        assert s.compute_total == 1024
        assert s.staging_total == 64
        assert s.compute_uncommitted == 1024
        assert s.staging_uncommitted == 64

    def test_rejects_bad_parameters(self):
        with pytest.raises(ServiceError):
            TenantScheduler(0, 64)
        with pytest.raises(ServiceError):
            TenantScheduler(1024, 0)


class TestAdmission:
    def test_full_grant_when_pool_has_room(self):
        s = TenantScheduler(1024, 64)
        assert s.admit(512, 32) == 32
        assert s.compute_committed == 512
        assert s.staging_committed == 32

    def test_squeezed_grant_under_pressure(self):
        s = TenantScheduler(1024, 16)
        assert s.admit(256, 12) == 12
        # 4 cores left; a 12-core request is squeezed onto them because
        # MIN_SHARE * 12 = 3 <= 4.
        assert s.admit(256, 12) == 4
        assert s.staging_uncommitted == 0

    def test_share_floor_blocks_admission(self):
        s = TenantScheduler(1024, 16)
        s.admit(256, 15)
        # min grant for a 12-core request is 3 > 1 uncommitted.
        assert not s.fits(256, 12)
        with pytest.raises(ServiceError):
            s.admit(256, 12)

    def test_compute_exhaustion_blocks_admission(self):
        s = TenantScheduler(64, 64)
        s.admit(64, 8)
        assert not s.fits(1, 8)
        with pytest.raises(ServiceError):
            s.admit(1, 8)

    def test_feasible_is_empty_machine_fits(self):
        s = TenantScheduler(64, 8)
        s.admit(64, 8)  # machine now full
        assert not s.fits(64, 8)
        assert s.feasible(64, 8)  # but would fit once drained
        assert not s.feasible(65, 8)
        assert not s.feasible(64, 0)
        assert not s.feasible(0, 8)
        # min grant ceil(64 * 0.25) = 16 > pool of 8.
        assert not s.feasible(1, 64)

    def test_min_staging_grant(self):
        s = TenantScheduler(1024, 64)
        assert MIN_SHARE == 0.25
        assert s.min_staging_grant(1) == 1
        assert s.min_staging_grant(4) == 1
        assert s.min_staging_grant(5) == 2
        assert s.min_staging_grant(64) == 16


class TestBorrowAndRelease:
    def test_borrow_clamps_to_uncommitted(self):
        s = TenantScheduler(1024, 16)
        s.admit(256, 12)
        assert s.borrow(8) == 4
        assert s.staging_uncommitted == 0
        assert s.borrow(8) == 0

    def test_borrow_rejects_nonpositive(self):
        s = TenantScheduler(1024, 16)
        with pytest.raises(ServiceError):
            s.borrow(0)

    def test_give_back_restores_pool(self):
        s = TenantScheduler(1024, 16)
        s.admit(256, 8)
        took = s.borrow(4)
        s.give_back(took)
        assert s.staging_committed == 8

    def test_give_back_beyond_committed_raises(self):
        s = TenantScheduler(1024, 16)
        s.admit(256, 8)
        with pytest.raises(ServiceError):
            s.give_back(9)

    def test_release_returns_exact_holdings(self):
        s = TenantScheduler(1024, 64)
        grant = s.admit(512, 32)
        s.release(512, grant, "alice", 100.0)
        assert s.compute_committed == 0
        assert s.staging_committed == 0
        assert s.usage["alice"] == 100.0

    def test_release_accumulates_usage_per_user(self):
        s = TenantScheduler(1024, 64)
        s.admit(100, 8)
        s.admit(100, 8)
        s.release(100, 8, "alice", 10.0)
        s.release(100, 8, "alice", 5.0)
        assert s.usage["alice"] == 15.0
        assert s.usage["bob"] == 0.0

    def test_release_beyond_committed_raises(self):
        s = TenantScheduler(1024, 64)
        s.admit(100, 8)
        with pytest.raises(ServiceError):
            s.release(101, 8, "alice", 0.0)
        with pytest.raises(ServiceError):
            s.release(100, 9, "alice", 0.0)

    def test_full_lifecycle_returns_to_empty(self):
        s = TenantScheduler(128, 32)
        g1 = s.admit(64, 16)
        g2 = s.admit(64, 24)  # squeezed to 16
        assert (g1, g2) == (16, 16)
        took = 0
        s.release(64, g1, "a", 1.0)
        took = s.borrow(10)
        assert took == 10
        s.give_back(took)
        s.release(64, g2, "b", 2.0)
        assert s.compute_committed == 0
        assert s.staging_committed == 0
