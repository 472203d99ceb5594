"""Bench: the span profiler's hot-path budgets and disabled-path overhead.

Two guarantees are enforced here:

- **Budgets.**  The canonical profile workload (the same quickstart
  replay ``python -m repro profile`` runs) is profiled and every
  per-span-path ceiling of ``benchmarks/budgets.json`` is asserted, so
  a hot-path regression fails the bench session with the offending span
  named.
- **Overhead.**  Replaying the instrumented quickstart (trace
  synthesis + construction + run, exactly what ``python -m repro
  profile`` times) must cost < 5% over the uninstrumented replay,
  keeping the ``profiler=`` injection honest about its near-zero
  disabled cost and small enabled cost.  Methodology, chosen for
  noisy single-vCPU CI boxes: per-round CPU time
  (``time.process_time``, immune to scheduler steal), instrumented and
  plain replays alternated so machine drift hits both alike, a
  trimmed-mean ratio (empirically far more stable here than min-of-N,
  which chases rare turbo windows), and up to three independent
  measurement passes -- the assert fails only if *every* pass lands
  above the ceiling, so a single noise burst cannot fail the session
  while a real regression (all passes high) still does.
"""

import time
from pathlib import Path

from repro.__main__ import _quickstart
from repro.observability import (
    Profiler,
    check_budgets,
    load_budgets,
    render_budget_report,
    unregistered_spans,
)
from repro.workflow.driver import CoupledWorkflow

BUDGETS_PATH = Path(__file__).parent / "budgets.json"

#: Alternated rounds per variant per measurement pass; the trimmed
#: mean over these damps both scheduler noise and machine drift.
_ROUNDS = 40

#: Independent measurement passes; the assert needs only one to land
#: under the ceiling.
_PASSES = 3

#: The canonical quickstart depth -- the workload the acceptance
#: criterion names (and ``budgets.json`` pins).
_OVERHEAD_STEPS = 20


def _replay(steps: int, profiler=None) -> float:
    """CPU seconds to build, construct and run one quickstart workflow.

    The full instrumented surface -- ``workload.build`` and
    ``workflow.setup`` spans included -- so the ratio measures exactly
    what ``python -m repro profile`` instruments.
    """
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


def _trimmed_mean(samples: list) -> float:
    """Mean of the central half: outlier-robust, more efficient than
    the median."""
    ordered = sorted(samples)
    drop = len(ordered) // 4
    core = ordered[drop:len(ordered) - drop]
    return sum(core) / len(core)


def test_profile_budgets():
    """The canonical workload satisfies every budget ceiling."""
    manifest = load_budgets(BUDGETS_PATH)
    workload = manifest["workload"]
    profiler = Profiler()

    with profiler.span("workload.build"):
        config, trace = _quickstart(
            workload["mode"], workload["steps"], workload["seed"]
        )
    with profiler.span("workflow.setup"):
        workflow = CoupledWorkflow(config, trace, profiler=profiler)
    workflow.run()
    print("\n" + render_budget_report(profiler, manifest))

    assert unregistered_spans(profiler) == []
    violations = check_budgets(profiler, manifest)
    assert not violations, "; ".join(v.describe() for v in violations)


def _overhead_pass() -> float:
    """One measurement pass: the trimmed-mean overhead ratio."""
    plains, profiled = [], []
    for i in range(_ROUNDS):
        # Alternate which variant goes first so slow drift (thermal,
        # steal) is shared evenly instead of biasing one side.
        if i % 2 == 0:
            plains.append(_replay(_OVERHEAD_STEPS))
            profiled.append(_replay(_OVERHEAD_STEPS, profiler=Profiler()))
        else:
            profiled.append(_replay(_OVERHEAD_STEPS, profiler=Profiler()))
            plains.append(_replay(_OVERHEAD_STEPS))
    return _trimmed_mean(profiled) / _trimmed_mean(plains) - 1.0


def test_profiler_overhead_under_5_percent():
    """Instrumented quickstart costs < 5% CPU over the uninstrumented one."""
    # Warm both paths (imports, allocator) before timing anything.
    _replay(_OVERHEAD_STEPS)
    _replay(_OVERHEAD_STEPS, profiler=Profiler())

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
