"""Figure 5: adaptive spatial resolution vs memory."""

import numpy as np

from repro.experiments import fig5_app_layer


def test_fig5_app_layer():
    """Fig. 5: the resolution drops only once memory pressure demands it."""
    result = fig5_app_layer.run_fig5()
    assert fig5_app_layer.render(result)
    factors = result.factors
    hints_min_early = 2
    # Early in the run memory is plentiful: the minimum (highest-resolution)
    # factor is selected.
    assert (factors[:10] == hints_min_early).all()
    # Memory pressure eventually forces a resolution drop (paper: step 31).
    step = result.adaptation_step
    assert step is not None and step > 10
    # The adaptive consumption never exceeds the MAX-resolution consumption.
    assert (result.consumption_adaptive
            <= result.consumption_max_res + 1e-9).all()
    # After adaptation starts, chosen consumption fits availability wherever
    # any hinted factor fits.
    fits = result.consumption_min_res <= result.availability
    ok = ~fits | (result.consumption_adaptive <= result.availability + 1e-9)
    assert ok.all()
    assert int(factors[-1]) >= int(np.max(factors[:10]))
