"""Exact core bookkeeping for the shared compute and staging pools.

The :class:`TenantScheduler` is the service's ledger of who holds what:
compute cores are *partitioned*, staging cores are *granted* -- each
admitted tenant receives a base grant carved out of the shared staging
pool, and may later borrow uncommitted cores through the negotiation
path (:meth:`borrow`/:meth:`give_back`).

The scheduler never touches a :class:`~repro.staging.area.StagingArea`
itself; the service actuates grants by masking each tenant's area with
``fail_cores``/``restore_cores`` and keeps this ledger in lock-step, so
the invariant checked after every mutation here mirrors the area-level
``active <= healthy <= total`` invariant.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.errors import ServiceError

__all__ = ["MIN_SHARE", "TenantScheduler"]

#: Fraction of a tenant's requested staging cores that must be
#: uncommitted for admission (the grant is ``min(request, uncommitted)``,
#: so under pressure tenants are admitted squeezed rather than waiting
#: for their full request).
MIN_SHARE = 0.25


class TenantScheduler:
    """Shared-pool accounting: admission checks, grants, borrow/return.

    Parameters
    ----------
    sim_cores, staging_cores:
        The shared machine's pool sizes (the whole simulation and
        staging partitions).  Both are physical cores: the sum of
        admitted tenants' simulation cores never exceeds ``sim_cores``,
        and staging grants never exceed ``staging_cores``.
    """

    def __init__(self, sim_cores: int, staging_cores: int):
        if sim_cores < 1 or staging_cores < 1:
            raise ServiceError("pool core counts must be >= 1")
        self.compute_total = int(sim_cores)
        self.staging_total = int(staging_cores)
        self.compute_committed = 0
        self.staging_committed = 0
        #: Accumulated staging core-seconds served, per user -- the
        #: fair-share admission policy's ordering key.
        self.usage: dict[str, float] = defaultdict(float)

    # -- capacity queries ----------------------------------------------------

    @property
    def staging_uncommitted(self) -> int:
        """Staging-pool cores not granted to any tenant."""
        return self.staging_total - self.staging_committed

    @property
    def compute_uncommitted(self) -> int:
        """Simulation-partition cores not committed to any tenant."""
        return self.compute_total - self.compute_committed

    def min_staging_grant(self, requested: int) -> int:
        """Smallest admissible grant for a ``requested``-core tenant."""
        return max(1, math.ceil(requested * MIN_SHARE))

    def fits(self, sim_cores: int, staging_cores: int) -> bool:
        """Would a (compute, staging) request be admissible right now?"""
        return (
            sim_cores <= self.compute_uncommitted
            and self.min_staging_grant(staging_cores) <= self.staging_uncommitted
        )

    def feasible(self, sim_cores: int, staging_cores: int) -> bool:
        """Could the request EVER be admitted (i.e. fits an empty machine)?

        Guarantees queue progress: any enqueued tenant passes this, so it
        is admissible at the latest when every other tenant has finished.
        """
        return (
            1 <= sim_cores <= self.compute_total
            and 1 <= staging_cores
            and self.min_staging_grant(staging_cores) <= self.staging_total
        )

    # -- mutations -----------------------------------------------------------

    def admit(self, sim_cores: int, staging_cores: int) -> int:
        """Commit a tenant; returns its base staging grant.

        The grant is the full request when the pool has room, else every
        remaining uncommitted core (``fits`` guarantees at least the
        :data:`MIN_SHARE` floor).
        """
        if not self.fits(sim_cores, staging_cores):
            raise ServiceError(
                f"cannot admit ({sim_cores} sim, {staging_cores} staging) "
                f"cores: uncommitted compute {self.compute_uncommitted}, "
                f"staging {self.staging_uncommitted}"
            )
        grant = min(int(staging_cores), self.staging_uncommitted)
        self.compute_committed += int(sim_cores)
        self.staging_committed += grant
        self._check()
        return grant

    def borrow(self, count: int) -> int:
        """Grant up to ``count`` extra staging cores; returns how many."""
        if count < 1:
            raise ServiceError(f"borrow needs count >= 1, got {count}")
        take = min(int(count), self.staging_uncommitted)
        self.staging_committed += take
        self._check()
        return take

    def give_back(self, count: int) -> None:
        """Return ``count`` previously granted staging cores to the pool."""
        if not 0 <= count <= self.staging_committed:
            raise ServiceError(
                f"cannot return {count} staging cores "
                f"(committed {self.staging_committed})"
            )
        self.staging_committed -= int(count)
        self._check()

    def release(
        self,
        sim_cores: int,
        staging_grant: int,
        user: str,
        served_core_seconds: float,
    ) -> None:
        """Release a completed tenant's holdings and record its service."""
        if sim_cores > self.compute_committed:
            raise ServiceError(
                f"releasing {sim_cores} compute cores but only "
                f"{self.compute_committed} committed"
            )
        if staging_grant > self.staging_committed:
            raise ServiceError(
                f"releasing {staging_grant} staging cores but only "
                f"{self.staging_committed} committed"
            )
        self.compute_committed -= int(sim_cores)
        self.staging_committed -= int(staging_grant)
        self.usage[user] += float(served_core_seconds)
        self._check()

    def _check(self) -> None:
        if not 0 <= self.compute_committed <= self.compute_total:
            raise ServiceError(
                f"compute commitment {self.compute_committed} outside "
                f"[0, {self.compute_total}]"
            )
        if not 0 <= self.staging_committed <= self.staging_total:
            raise ServiceError(
                f"staging commitment {self.staging_committed} outside "
                f"[0, {self.staging_total}]"
            )
