"""Multi-tenant contention sweep: admission policies on a shared machine.

Not a figure of the paper -- the service-layer extension (ISSUE 10):
the paper runs one coupled workflow per machine, while the staging
services it builds on serve several applications from one staging
pool.  This sweep quantifies what that sharing costs.  Each point admits
``tenants`` workflows (alternating wide/narrow staging footprints, two
users) onto ONE shared :class:`~repro.service.WorkflowService` machine
under one admission policy and reports the fleet's SLO numbers:

- **mean/max time-to-solution** -- arrival to completion on the shared
  clock, queue wait included (the per-tenant ``tenant.completed`` view);
- **Δ vs solo** -- mean time-to-solution against the same policy's
  single-tenant point: the degradation contention buys;
- **queue wait / starvations** -- how long admission held tenants back,
  and how often a queued tenant crossed the starvation threshold;
- **fairness** -- Jain's index over per-tenant slowdowns (1.0 = every
  tenant degraded equally).

``grid()/run_point()/merge()`` follow the sweep protocol, so ``python
-m repro run-all --only fig_tenants --jobs 2`` fans the points over
workers; ``python -m repro tenants`` renders the same table
interactively and ``python -m repro tenants --smoke`` is the CI
tenant-smoke entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ExperimentError
from repro.experiments.common import render_table
from repro.hpc.systems import titan
from repro.service import ADMISSION_POLICIES, WorkflowService
from repro.workflow.config import Mode, WorkflowConfig
from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace
from repro.workload.trace import WorkloadTrace

__all__ = [
    "FigTenantsResult",
    "TenantRow",
    "grid",
    "merge",
    "render",
    "run_point",
]

#: Shared-machine pool sizes every point runs on.
POOL_SIM_CORES = 1024
POOL_STAGING_CORES = 64
STEPS = 10
SEED = 42
#: Tenant-count axis: 1 is the solo baseline each policy is compared to.
TENANT_COUNTS = (1, 2, 4)
#: Policy axis, registry order (fifo first -- the head-of-line baseline).
POLICY_NAMES = tuple(ADMISSION_POLICIES)
#: Seconds between consecutive tenant arrivals.
ARRIVAL_STAGGER = 1.0
#: Queue wait beyond this raises ``tenant.starved`` (simulated seconds).
STARVATION_WAIT = 5.0


@lru_cache(maxsize=16)
def _workload(seed: int, steps: int = STEPS) -> WorkloadTrace:
    """One tenant's AMR workload (seed-distinct so tenants differ)."""
    return synthetic_amr_trace(
        SyntheticAMRConfig(
            steps=steps,
            nranks=256,
            base_cells=2e7,
            sim_cost_per_cell=1.0,
            growth=1.5,
            analysis_growth_exponent=1.0,
            seed=seed,
        ),
        name=f"trace-tenant-{seed}",
    )


def _tenant_config(index: int) -> WorkflowConfig:
    """Alternating profiles: even tenants wide, odd tenants narrow.

    Wide tenants request half the compute pool and most of the staging
    pool; narrow ones a quarter and a sliver.  The mix is what separates
    the policies: under fifo a blocked wide head starves the narrow
    tenants behind it, ``smallest`` backfills them, ``fair_share``
    alternates the two users.
    """
    wide = index % 2 == 0
    return WorkflowConfig(
        mode=Mode.GLOBAL,
        sim_cores=POOL_SIM_CORES // 2 if wide else POOL_SIM_CORES // 4,
        staging_cores=48 if wide else 8,
        spec=titan(),
        analysis_cost_per_cell=0.035,
    )


@dataclass(frozen=True)
class TenantRow:
    """One (policy, tenant-count) point's fleet SLO numbers."""

    policy: str
    tenants: int
    makespan: float
    mean_tts: float  # mean time-to-solution (arrival -> completion)
    max_tts: float
    mean_queue_wait: float
    fairness_index: float  # Jain's index over per-tenant slowdowns
    starvations: int
    grant_expansions: int  # pool-negotiated staging-grant growths


@dataclass(frozen=True)
class FigTenantsResult:
    """All swept rows, grid order (policy-major, tenant-count-minor)."""

    rows: tuple[TenantRow, ...]

    def row(self, policy: str, tenants: int) -> TenantRow:
        for row in self.rows:
            if row.policy == policy and row.tenants == tenants:
                return row
        raise ExperimentError(f"no row for {policy!r} x {tenants} tenants")


def grid() -> list[dict]:
    """Sweep protocol: policy-major, tenant-count-minor (solo first)."""
    return [
        {"policy": policy, "tenants": count, "steps": STEPS}
        for policy in POLICY_NAMES
        for count in TENANT_COUNTS
    ]


def run_point(params: dict) -> TenantRow:
    """Sweep protocol: one fleet on one shared machine (worker-side)."""
    policy = params["policy"]
    count = int(params["tenants"])
    steps = int(params.get("steps", STEPS))
    service = WorkflowService(
        sim_cores=POOL_SIM_CORES,
        staging_cores=POOL_STAGING_CORES,
        policy=policy,
        starvation_wait=STARVATION_WAIT,
    )
    for index in range(count):
        service.submit(
            f"tenant-{index}",
            _tenant_config(index),
            _workload(SEED + index, steps),
            arrival=index * ARRIVAL_STAGGER,
            user=f"user-{index % 2}",
        )
    report = service.run()
    waits = [t.queue_wait for t in report.tenants]
    tts = [t.time_to_solution for t in report.tenants]
    return TenantRow(
        policy=policy,
        tenants=count,
        makespan=report.makespan,
        mean_tts=sum(tts) / len(tts),
        max_tts=max(tts),
        mean_queue_wait=sum(waits) / len(waits),
        fairness_index=report.fairness_index,
        starvations=report.starvations,
        grant_expansions=service.grant_expansions,
    )


def merge(results: list) -> FigTenantsResult:
    """Sweep protocol: grid-ordered rows -> the result object."""
    return FigTenantsResult(rows=tuple(results))


def render(result: FigTenantsResult) -> str:
    """The contention table: per-policy degradation vs the solo point."""
    body = []
    for row in result.rows:
        # Baseline: the policy's smallest fleet present (the solo point
        # in a full sweep; the row itself when the CLI filtered it out).
        solo = min(
            (r for r in result.rows if r.policy == row.policy),
            key=lambda r: r.tenants,
        )
        degradation = (
            100.0 * (row.mean_tts - solo.mean_tts) / solo.mean_tts
            if solo.mean_tts > 0
            else 0.0
        )
        body.append([
            row.policy,
            str(row.tenants),
            f"{row.makespan:.1f}",
            f"{row.mean_tts:.1f}",
            f"{degradation:+.0f}%",
            f"{row.max_tts:.1f}",
            f"{row.mean_queue_wait:.1f}",
            f"{row.fairness_index:.3f}",
            str(row.starvations),
            str(row.grant_expansions),
        ])
    return render_table(
        ["policy", "tenants", "makespan (s)", "mean tts (s)", "Δ vs solo",
         "max tts (s)", "queue wait (s)", "fairness", "starved",
         "expansions"],
        body,
        title=f"Multi-tenant contention on a {POOL_SIM_CORES}/"
        f"{POOL_STAGING_CORES}-core shared machine "
        "(tts = arrival to completion, queue wait included)",
    )


if __name__ == "__main__":
    print(render(merge([run_point(params) for params in grid()])))
