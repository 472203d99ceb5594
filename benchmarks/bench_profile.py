"""Bench: the span profiler's one budget check and its disabled-path overhead.

Two guarantees are enforced here:

- **Budget.**  The quickstart replay ``python -m repro profile`` times
  is replayed warm, in process, ``_BUDGET_REPEATS`` times after one
  warm-up.  For each guarded root span ``s`` the check takes the median
  of ``r(s) = cum(s) / (attributed - cum(s))``: the span's cost relative
  to the rest of the same replay.  It fails when ``r(s)`` exceeds
  ``MARGIN * BASELINE[s]``.  A relative ceiling is used because absolute
  warm medians moved about 2x between processes on one host, while
  ``r`` moved under 1.2x (``docs/profiling.md`` has the figures).  A guarded span that takes
  twice as long doubles its ``r`` and clears any margin under 2; the
  ``test_doubled_*`` tests inject exactly that and assert the check
  fails.
- **Overhead.**  Replaying the instrumented quickstart (trace
  synthesis + construction + run, exactly what ``python -m repro
  profile`` times) must cost < 5% over the uninstrumented replay,
  keeping the ``profiler=`` injection honest about its near-zero
  disabled cost and small enabled cost.  Methodology, chosen for
  noisy single-vCPU CI boxes: per-round CPU time
  (``time.process_time``, immune to scheduler steal), instrumented and
  plain replays alternated so machine drift hits both alike, a
  trimmed-mean ratio (empirically far more stable here than min-of-N,
  which chases rare turbo windows), a ``gc.collect()`` before every
  replay so the cyclic garbage an instrumented replay leaves is never
  collected inside a timed one, and up to three independent
  measurement passes -- the assert fails only if *every* pass lands
  above the ceiling, so a single noise burst cannot fail the session
  while a real regression (all passes high) still does.
"""

import gc
import statistics
import time

from repro.__main__ import _quickstart
from repro.observability import Profiler, unregistered_spans
from repro.workflow.driver import CoupledWorkflow

#: Median ``r(s)`` of each guarded root span, measured on the 20-step
#: quickstart (``docs/profiling.md`` gives the per-process spread and
#: how to recalibrate).  The third root span, ``workflow.setup``, is
#: a few tenths of a millisecond warm and is not guarded.
BASELINE = {"workload.build": 0.61, "workflow.run": 1.30}

#: The one fixed margin over ``BASELINE``; under 2, so a 2x slowdown in
#: a guarded span always fails.
MARGIN = 1.3

#: Warm replays the budget check takes the median over.
_BUDGET_REPEATS = 21

#: Alternated rounds per variant per measurement pass; the trimmed
#: mean over these damps both scheduler noise and machine drift.
_ROUNDS = 40

#: Independent measurement passes; the assert needs only one to land
#: under the ceiling.
_PASSES = 3

#: The canonical quickstart depth, the workload ``repro profile`` runs.
_STEPS = 20


def _replay(steps: int, profiler=None) -> float:
    """CPU seconds to build, construct and run one quickstart workflow.

    The full instrumented surface -- ``workload.build`` and
    ``workflow.setup`` spans included -- so the ratio measures exactly
    what ``python -m repro profile`` instruments.  A full collection
    runs first, outside the timed region.  A plain replay frees itself
    by reference counting, but an instrumented one leaves 379 objects in
    reference cycles: ``instrument()`` puts each span wrapper on the
    instance, holding the bound method it replaced.  Without the
    collection, the passes that garbage forces would land in whichever
    replay happens to cross the threshold.
    """
    gc.collect()
    started = time.process_time()
    if profiler is not None:
        with profiler.span("workload.build"):
            config, trace = _quickstart("global", steps, 42)
        with profiler.span("workflow.setup"):
            workflow = CoupledWorkflow(config, trace, profiler=profiler)
    else:
        config, trace = _quickstart("global", steps, 42)
        workflow = CoupledWorkflow(config, trace)
    workflow.run()
    return time.process_time() - started


def span_ratios() -> dict:
    """Median ``r(s)`` of every guarded span over warm replays."""
    _replay(_STEPS, profiler=Profiler())
    samples = {span: [] for span in BASELINE}
    for _ in range(_BUDGET_REPEATS):
        profiler = Profiler()
        _replay(_STEPS, profiler=profiler)
        spans = profiler.dump()
        assert unregistered_spans(spans) == []
        attributed = profiler.total_seconds()
        for span, ratios in samples.items():
            cum = spans[span]["cum_seconds"]
            ratios.append(cum / (attributed - cum))
    return {span: statistics.median(r) for span, r in samples.items()}


def over_budget(ratios: dict) -> dict:
    """The guarded spans whose ``r`` exceeds ``MARGIN * BASELINE``."""
    return {span: r for span, r in ratios.items()
            if r > MARGIN * BASELINE[span]}


def _twice_as_slow(func):
    """``func``, spinning after each call for as long as the call took."""
    def doubled(*args, **kwargs):
        started = time.perf_counter()
        result = func(*args, **kwargs)
        finished = time.perf_counter()
        while time.perf_counter() - finished < finished - started:
            pass
        return result
    return doubled


def test_guarded_spans_within_budget():
    """Each guarded span's share of the replay stays under its ceiling."""
    ratios = span_ratios()
    print("\n" + "\n".join(
        f"{span}: r={r:.3f}  ceiling {MARGIN * BASELINE[span]:.3f}"
        for span, r in ratios.items()))
    assert not over_budget(ratios), ratios


def test_doubled_workload_build_fails_budget(monkeypatch):
    monkeypatch.setitem(globals(), "_quickstart", _twice_as_slow(_quickstart))
    assert "workload.build" in over_budget(span_ratios())


def test_doubled_workflow_run_fails_budget(monkeypatch):
    monkeypatch.setattr(CoupledWorkflow, "run",
                        _twice_as_slow(CoupledWorkflow.run))
    assert "workflow.run" in over_budget(span_ratios())


def _trimmed_mean(samples: list) -> float:
    """Mean of the central half: outlier-robust, more efficient than
    the median."""
    ordered = sorted(samples)
    drop = len(ordered) // 4
    core = ordered[drop:len(ordered) - drop]
    return sum(core) / len(core)


def _overhead_pass() -> float:
    """One measurement pass: the trimmed-mean overhead ratio."""
    plains, profiled = [], []
    for i in range(_ROUNDS):
        # Alternate which variant goes first so slow drift (thermal,
        # steal) is shared evenly instead of biasing one side.
        if i % 2 == 0:
            plains.append(_replay(_STEPS))
            profiled.append(_replay(_STEPS, profiler=Profiler()))
        else:
            profiled.append(_replay(_STEPS, profiler=Profiler()))
            plains.append(_replay(_STEPS))
    return _trimmed_mean(profiled) / _trimmed_mean(plains) - 1.0


def test_profiler_overhead_under_5_percent():
    """Instrumented quickstart costs < 5% CPU over the uninstrumented one."""
    # Warm both paths (imports, allocator) before timing anything.
    _replay(_STEPS)
    _replay(_STEPS, profiler=Profiler())

    estimates = []
    for n in range(_PASSES):
        estimates.append(_overhead_pass())
        print(f"\npass {n}: overhead {estimates[-1] * 100:+.2f}%")
        if estimates[-1] < 0.05:
            break
    best = min(estimates)
    print(f"best of {len(estimates)} pass(es): {best * 100:+.2f}%")
    assert best < 0.05, (
        f"profiler overhead exceeded the 5% budget in every measurement "
        f"pass: {', '.join(f'{e * 100:+.2f}%' for e in estimates)}"
    )
