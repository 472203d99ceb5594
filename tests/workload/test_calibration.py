"""Calibration check: the synthetic family against the captured gas trace.

Figs. 7-11 and Table 2 replay :func:`~repro.experiments.common.advection_trace`,
a :func:`~repro.workload.synthetic.synthetic_amr_trace` with hand-set
knobs.  The one trace captured from a real solver is the 3-D
polytropic-gas run (:func:`~repro.experiments.fig1_memory.captured_gas_trace`).
This module measures three statistics on both and pins each to the range
that the :mod:`repro.workload.synthetic` docstring states, so the
documented gap and the test change together.

Definitions, per trace:

- **growth**: the largest cell count over the run divided by the first
  step's cell count;
- **log-sigma**: the population standard deviation of ``log(rank_bytes)``
  across ranks, averaged over the steps;
- **peak/mean**: the largest rank's bytes over the mean rank's bytes
  (:attr:`StepRecord.imbalance`), averaged over the steps.

Each band was set from a scratch measurement before this module was run.
A band must bracket every value it covers, and the gas and family bands
of each statistic must not overlap: the family is not fitted to the
capture, and its growth, burst and imbalance spreads are assumptions.
"""

import numpy as np
import pytest

import repro.workload.synthetic as synthetic
from repro.experiments.common import SCALES, advection_trace
from repro.experiments.fig1_memory import captured_gas_trace

#: Steps of the gas capture: the length the Fig. 5 study replays.
GAS_STEPS = 40

#: statistic -> ((gas low, high), (family low, high)), as documented.
BANDS = {
    "growth": ((1.7, 1.9), (2.5, 3.3)),
    "log-sigma": ((0.03, 0.06), (0.42, 0.48)),
    "peak/mean": ((1.02, 1.10), (4.0, 6.0)),
}


def statistics(trace) -> dict[str, float]:
    """The three calibration statistics of ``trace`` (see the module docstring)."""
    cells = [record.cells for record in trace.steps]
    return {
        "growth": max(cells) / cells[0],
        "log-sigma": float(np.mean([np.log(r.rank_bytes).std() for r in trace.steps])),
        "peak/mean": float(np.mean([r.imbalance for r in trace.steps])),
    }


def _documented(band: tuple[float, float]) -> str:
    return f"{band[0]:g}-{band[1]:g}"


@pytest.fixture(scope="module")
def gas() -> dict[str, float]:
    return statistics(captured_gas_trace(GAS_STEPS))


@pytest.mark.parametrize("name", list(BANDS))
def test_gas_capture_in_documented_band(gas, name):
    low, high = BANDS[name][0]
    assert low <= gas[name] <= high, (name, gas[name])


@pytest.mark.parametrize("scale", SCALES, ids=lambda scale: scale.label)
def test_family_in_documented_band(scale):
    family = statistics(advection_trace(scale))
    for name, (_, (low, high)) in BANDS.items():
        assert low <= family[name] <= high, (scale.label, name, family[name])


@pytest.mark.parametrize("name", list(BANDS))
def test_gap_is_documented(name):
    gas_band, family_band = BANDS[name]
    assert gas_band[1] < family_band[0]  # the family sits above the capture
    doc = synthetic.__doc__
    row = next(line for line in doc.splitlines() if line.startswith(name + " "))
    assert row.split()[1:] == [_documented(gas_band), _documented(family_band)]
