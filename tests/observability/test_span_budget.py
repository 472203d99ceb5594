"""The pieces of ``benchmarks/bench_profile.py``'s relative span budget.

The bench itself times warm quickstart replays and is run by ``pytest
benchmarks``.  These tests pin what does not depend on timing: which
spans are guarded, how a ratio is judged against its ceiling, that the
slowdown injected by the mutant tests really doubles a call, and that a
replay records the root spans ``r(s)`` is computed from.
"""

import importlib.util
import math
import time
from pathlib import Path

import pytest

from repro.observability import PROFILE_SPANS, Profiler

BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_profile.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_profile_budget", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()

_ROOTS = {"workload.build", "workflow.setup", "workflow.run"}


class TestGuardedSpans:
    def test_guards_exactly_the_two_heavy_root_spans(self):
        assert set(bench.BASELINE) == {"workload.build", "workflow.run"}

    def test_guarded_spans_are_registered_roots(self):
        for span in bench.BASELINE:
            assert span in PROFILE_SPANS
            assert "/" not in span

    def test_baselines_are_positive(self):
        assert all(r > 0 for r in bench.BASELINE.values())

    def test_margin_is_under_two(self):
        # A guarded span that takes twice as long doubles its r, so any
        # margin in (1, 2) both tolerates noise and fails a 2x slowdown.
        assert 1.0 < bench.MARGIN < 2.0


class TestOverBudget:
    def test_ratios_at_baseline_pass(self):
        assert bench.over_budget(dict(bench.BASELINE)) == {}

    def test_ratio_exactly_at_the_ceiling_passes(self):
        ceilings = {span: bench.MARGIN * base
                    for span, base in bench.BASELINE.items()}
        assert bench.over_budget(ceilings) == {}

    def test_doubled_ratios_fail_every_guarded_span(self):
        doubled = {span: 2 * base for span, base in bench.BASELINE.items()}
        assert bench.over_budget(doubled) == doubled

    def test_only_the_overrun_span_is_reported(self):
        ratios = dict(bench.BASELINE)
        ratios["workflow.run"] *= 2
        assert bench.over_budget(ratios) == {
            "workflow.run": ratios["workflow.run"]}

    def test_misspelled_span_raises_key_error(self):
        with pytest.raises(KeyError):
            bench.over_budget({"workload.bild": 0.1})


class TestTwiceAsSlow:
    def test_passes_arguments_and_returns_the_result(self):
        doubled = bench._twice_as_slow(lambda a, b=0: (a, b))
        assert doubled(1, b=2) == (1, 2)

    def test_call_takes_at_least_twice_as_long(self):
        inner = []

        def nap():
            started = time.perf_counter()
            time.sleep(0.005)
            inner.append(time.perf_counter() - started)

        doubled = bench._twice_as_slow(nap)
        started = time.perf_counter()
        doubled()
        assert time.perf_counter() - started >= 2 * inner[0]


class TestTrimmedMean:
    def test_drops_the_outer_quarters(self):
        assert bench._trimmed_mean([100.0, 1.0, 3.0, 2.0]) == 2.5

    def test_keeps_short_samples_whole(self):
        assert bench._trimmed_mean([4.0, 2.0, 3.0]) == 3.0


class TestReplay:
    def test_profiled_replay_records_the_three_root_spans(self):
        profiler = Profiler()
        assert bench._replay(3, profiler=profiler) > 0
        dump = profiler.dump()
        assert {path for path in dump if "/" not in path} == _ROOTS
        # ``attributed`` in r(s) is the sum of exactly those roots.
        assert profiler.total_seconds() == pytest.approx(
            sum(dump[root]["cum_seconds"] for root in _ROOTS))

    def test_plain_replay_takes_cpu_time(self):
        assert bench._replay(3) > 0

    def test_span_ratios_cover_every_guarded_span(self, monkeypatch):
        monkeypatch.setattr(bench, "_BUDGET_REPEATS", 3)
        monkeypatch.setattr(bench, "_STEPS", 3)
        ratios = bench.span_ratios()
        assert set(ratios) == set(bench.BASELINE)
        assert all(math.isfinite(r) and r > 0 for r in ratios.values())
