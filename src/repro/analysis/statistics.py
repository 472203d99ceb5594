"""Descriptive-statistics analysis kernel.

The paper notes its approach "could be extensible to other scalable
analysis approaches with no/rare communications, such as descriptive
statistic analysis, data subsetting, etc."  This module provides that
kernel: single-pass moments (mean and Welford second moment), extrema
and a histogram of a field's finite values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PolicyError

__all__ = ["FieldStatistics", "descriptive_statistics"]


@dataclass(frozen=True)
class FieldStatistics:
    """Single-field summary."""

    count: int
    mean: float
    m2: float  # sum of squared deviations (Welford)
    minimum: float
    maximum: float
    histogram: np.ndarray
    bin_edges: np.ndarray

    @property
    def variance(self) -> float:
        """Population variance."""
        return self.m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return float(np.sqrt(self.variance))


def descriptive_statistics(
    field: np.ndarray,
    bins: int = 64,
    value_range: tuple[float, float] | None = None,
) -> FieldStatistics:
    """Summary statistics of the finite values of ``field``."""
    if bins < 1:
        raise PolicyError(f"bins must be >= 1, got {bins}")
    flat = np.asarray(field, dtype=np.float64).ravel()
    flat = flat[np.isfinite(flat)]
    if flat.size == 0:
        edges = np.linspace(0.0, 1.0, bins + 1)
        return FieldStatistics(0, 0.0, 0.0, np.nan, np.nan, np.zeros(bins, int), edges)
    if value_range is None:
        lo, hi = float(flat.min()), float(flat.max())
        if lo == hi:
            hi = lo + 1.0
        value_range = (lo, hi)
    hist, edges = np.histogram(flat, bins=bins, range=value_range)
    mean = float(flat.mean())
    m2 = float(((flat - mean) ** 2).sum())
    return FieldStatistics(
        count=int(flat.size),
        mean=mean,
        m2=m2,
        minimum=float(flat.min()),
        maximum=float(flat.max()),
        histogram=hist,
        bin_edges=edges,
    )
