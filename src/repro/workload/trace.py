"""Trace data model.

A :class:`WorkloadTrace` is a per-step record of everything the coupled
workflow simulator and the adaptation policies need to know about the
simulation side: how much compute a step costs, how much data it emits,
and how that data (and memory pressure) is distributed over virtual ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TraceError

__all__ = ["StepRecord", "WorkloadTrace"]


@dataclass
class StepRecord:
    """One simulation time step as the workflow sees it."""

    step: int
    sim_work: float  # cell-updates the simulation performs this step
    cells: int  # output cells (analysis work scales with this)
    data_bytes: float  # full-resolution output size S_data
    memory_bytes: float  # total simulation memory in use
    rank_bytes: np.ndarray  # per-rank memory footprint (len = nranks)
    # Relative per-cell analysis cost this step.  Isosurface extraction
    # cost tracks feature (shock surface) complexity, which varies
    # independently of the cell count; 1.0 = nominal.
    analysis_intensity: float = 1.0
    # Reductions of rank_bytes, computed once in __post_init__: the
    # driver reads them every step of every run that replays the record.
    # Largest per-rank footprint (Figure 1's y-axis), the footprints'
    # sum, and max/mean (1.0 when the mean is zero).
    peak_rank_bytes: float = field(init=False, repr=False, compare=False)
    total_rank_bytes: float = field(init=False, repr=False, compare=False)
    imbalance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sim_work < 0 or self.cells < 0 or self.data_bytes < 0:
            raise TraceError(f"negative quantities in step {self.step}")
        if self.analysis_intensity < 0:
            raise TraceError(f"negative analysis intensity in step {self.step}")
        # Python floats, not NumPy scalars: what the workflow derives
        # from them lands in results and run records as JSON values.
        self.sim_work = float(self.sim_work)
        self.data_bytes = float(self.data_bytes)
        self.memory_bytes = float(self.memory_bytes)
        self.analysis_intensity = float(self.analysis_intensity)
        self.rank_bytes = np.asarray(self.rank_bytes, dtype=np.float64)
        if self.rank_bytes.ndim != 1 or self.rank_bytes.size == 0:
            raise TraceError(f"rank_bytes must be a non-empty 1-D array (step {self.step})")
        self.peak_rank_bytes = float(self.rank_bytes.max())
        self.total_rank_bytes = float(self.rank_bytes.sum())
        # ndarray.mean() is this same sum divided by the size.
        mean = self.total_rank_bytes / self.rank_bytes.size
        self.imbalance = self.peak_rank_bytes / mean if mean > 0 else 1.0


@dataclass
class WorkloadTrace:
    """A named sequence of step records plus workload-wide constants."""

    name: str
    ndim: int
    nranks: int
    bytes_per_cell: float
    steps: list[StepRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.ndim not in (1, 2, 3):
            raise TraceError(f"ndim must be 1, 2 or 3, got {self.ndim}")
        if self.nranks < 1:
            raise TraceError(f"nranks must be >= 1, got {self.nranks}")
        if self.bytes_per_cell <= 0:
            raise TraceError(f"bytes_per_cell must be positive, got {self.bytes_per_cell}")
        for record in self.steps:
            if record.rank_bytes.size != self.nranks:
                raise TraceError(
                    f"step {record.step} has {record.rank_bytes.size} ranks, "
                    f"trace declares {self.nranks}"
                )

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    @property
    def total_data_bytes(self) -> float:
        """Sum of S_data over all steps (the no-reduction movement bound)."""
        return sum(record.data_bytes for record in self.steps)

    def peak_memory_series(self) -> np.ndarray:
        """Per-step peak rank memory (Figure 1's trajectory)."""
        return np.array([record.peak_rank_bytes for record in self.steps])
