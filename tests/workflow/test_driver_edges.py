"""Edge-path coverage for the workflow driver."""

import numpy as np
import pytest

from repro.core.actions import Placement
from repro.hpc.systems import titan
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import CoupledWorkflow, run_workflow
from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace
from repro.workload.trace import StepRecord, WorkloadTrace


def trace(steps=8, nranks=64):
    return synthetic_amr_trace(
        SyntheticAMRConfig(steps=steps, nranks=nranks, base_cells=2e7,
                           sim_cost_per_cell=1.0, seed=0)
    )


class TestRankScaling:
    def test_trace_ranks_fewer_than_cores(self):
        """A rank stands for a core group: per-rank memory capacity scales."""
        t = trace(nranks=64)
        config = WorkflowConfig(mode=Mode.ADAPTIVE_MIDDLEWARE, sim_cores=1024,
                                staging_cores=64, spec=titan(),
                                analysis_cost_per_cell=0.035)
        wf = CoupledWorkflow(config, t)
        assert wf.rank_memory_capacity == pytest.approx(
            titan().memory_per_core * 1024 / 64
        )
        result = wf.run()
        assert all(m.analysis_done_at is not None for m in result.steps)

    def test_trace_ranks_equal_cores(self):
        t = trace(nranks=128)
        config = WorkflowConfig(mode=Mode.STATIC_INSITU, sim_cores=128,
                                staging_cores=8, spec=titan())
        wf = CoupledWorkflow(config, t)
        assert wf.rank_memory_capacity == pytest.approx(titan().memory_per_core)


class TestMemoryPressurePlacement:
    def test_insitu_infeasible_forces_intransit(self):
        """When the peak rank has no analysis headroom, case 1 of the
        middleware policy must ship the step even if staging is busy."""
        nranks = 8
        cells = int(4e7)  # 320 MB output -> 40 MB on the peak rank
        # Per-rank simulation state nearly fills the rank's memory,
        # leaving ~10 MB of headroom -- less than the analysis needs.
        capacity = titan().memory_per_core  # 2 GiB
        records = []
        for step in range(1, 7):
            rank_bytes = np.full(nranks, capacity * 0.995)
            records.append(StepRecord(
                step=step,
                sim_work=cells * 8.0,
                cells=cells,
                data_bytes=cells * 8.0,
                memory_bytes=float(rank_bytes.sum()),
                rank_bytes=rank_bytes,
            ))
        t = WorkloadTrace("pressure", 3, nranks, 8.0, records)
        config = WorkflowConfig(mode=Mode.ADAPTIVE_MIDDLEWARE, sim_cores=8,
                                staging_cores=4, spec=titan(),
                                analysis_cost_per_cell=0.5,
                                insitu_memory_factor=1.0)
        result = run_workflow(config, t)
        counts = result.placement_counts()
        assert counts[Placement.IN_SITU] == 0
        assert counts[Placement.IN_TRANSIT] == 6

    def test_global_reduction_restores_insitu_feasibility(self):
        """With the application layer allowed to reduce, the same
        memory-pressured workload can analyse in-situ again."""
        from repro.core.preferences import UserHints

        nranks = 8
        cells = int(4e6)
        capacity = titan().memory_per_core
        records = []
        for step in range(1, 7):
            rank_bytes = np.full(nranks, capacity * 0.9)
            records.append(StepRecord(
                step=step,
                sim_work=cells * 8.0,
                cells=cells,
                data_bytes=cells * 8.0,
                memory_bytes=float(rank_bytes.sum()),
                rank_bytes=rank_bytes,
                analysis_intensity=5.0,  # staging overloaded -> wants in-situ
            ))
        t = WorkloadTrace("pressure2", 3, nranks, 8.0, records)
        config = WorkflowConfig(
            mode=Mode.GLOBAL, sim_cores=8, staging_cores=4, spec=titan(),
            analysis_cost_per_cell=0.5,
            hints=UserHints(downsample_phases=((1, (4, 8)),)),
        )
        result = run_workflow(config, t)
        assert all(m.factor >= 4 for m in result.steps)
        assert all(m.analysis_done_at is not None for m in result.steps)


class TestStaticModesIgnoreHints:
    def test_static_insitu_never_reduces(self):
        from repro.core.preferences import UserHints

        config = WorkflowConfig(
            mode=Mode.STATIC_INSITU, sim_cores=256, staging_cores=16,
            spec=titan(),
            hints=UserHints(downsample_phases=((1, (2, 4)),)),
        )
        result = run_workflow(config, trace())
        assert all(m.factor == 1 for m in result.steps)
        assert all(m.data_bytes_out == m.data_bytes_full for m in result.steps)


class TestStagedShipment:
    """In-transit and hybrid steps ship through one path: wait for
    staging memory, stamp the stall, submit, and resolve on completion."""

    @staticmethod
    def _workflow(mode, share_of_staging, tracer=None):
        """Three steps whose output each fills ``share_of_staging`` of
        staging memory, with analysis slow enough that they queue."""
        spec = titan()
        memory = spec.partition_memory(4)
        steps = [StepRecord(i, 1e3, 10**9, share_of_staging * memory, 1e9,
                            np.full(4, 2.5e8)) for i in (1, 2, 3)]
        config = WorkflowConfig(mode=mode, sim_cores=64, staging_cores=4,
                                spec=spec)
        return CoupledWorkflow(config, WorkloadTrace("queued", 3, 4, 8.0, steps),
                               tracer=tracer)

    def test_in_transit_step_blocks_until_staging_frees(self):
        from repro.observability import Tracer
        from repro.observability.events import SIM_STALL

        tracer = Tracer()
        wf = self._workflow(Mode.STATIC_INTRANSIT, 0.6, tracer=tracer)
        result = wf.run()
        assert [m.placement for m in result.steps] == [Placement.IN_TRANSIT] * 3
        assert result.steps[0].block_seconds == 0.0
        assert all(m.block_seconds > 0 for m in result.steps[1:])
        stalls = tracer.events(SIM_STALL)
        assert [e.step for e in stalls] == [2, 3]
        for event, metric in zip(stalls, result.steps[1:]):
            assert event.fields["cause"] == "staging_memory"
            assert event.fields["seconds"] == metric.block_seconds

    def test_each_step_resolves_on_its_own_job(self):
        wf = self._workflow(Mode.STATIC_INTRANSIT, 0.6)
        result = wf.run()
        jobs = {job.step: job for job in wf.staging.completed}
        assert sorted(jobs) == [1, 2, 3]
        for metric in result.steps:
            assert jobs[metric.step].nbytes == metric.data_bytes_out
            assert metric.analysis_done_at == jobs[metric.step].finished_at

    def test_hybrid_ships_the_remainder_and_blocks_on_it(self):
        from repro.core.engine import AdaptationDecision

        wf = self._workflow(Mode.ADAPTIVE_MIDDLEWARE, 1.2)
        wf._decide = lambda step, *args, **kwargs: AdaptationDecision(
            step=step, placement=Placement.HYBRID, insitu_fraction=0.5,
        )
        result = wf.run()
        jobs = {job.step: job for job in wf.staging.completed}
        for metric in result.steps:
            assert metric.placement is Placement.HYBRID
            assert jobs[metric.step].nbytes == pytest.approx(
                0.5 * metric.data_bytes_out)
        assert result.steps[0].block_seconds == 0.0
        assert result.steps[1].block_seconds > 0
