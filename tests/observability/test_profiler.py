"""Tests for the span profiler: nesting, buffered replay, merge,
renderers, and the profiled run's bit-identity guarantee."""

import itertools
import json

import pytest

from repro.errors import ObservabilityError
from repro.hpc.systems import titan
from repro.observability import (
    PROFILE_SPANS,
    Profiler,
    SpanStat,
    merge_worker_profiles,
    render_hot_spans,
    render_profile,
    unregistered_spans,
)
from repro.workflow import Mode, WorkflowConfig, run_workflow
from repro.workload import SyntheticAMRConfig, synthetic_amr_trace


def _ticking():
    """A profiler whose clock returns 0.0, 1.0, 2.0, ... per read."""
    counter = itertools.count()
    return Profiler(clock=lambda: float(next(counter)))


class TestSpanRecording:
    def test_nested_spans_attribute_cum_and_self(self):
        p = _ticking()
        with p.span("a"):            # enter a @ t=0
            with p.span("b"):        # enter b @ t=1, exit @ t=2
                pass
            with p.span("b"):        # enter b @ t=3, exit @ t=4
                pass
        # exit a @ t=5: cum 5, children consumed 2, self 3.
        assert list(p.dump()) == ["a", "a/b"]
        a = p.get("a")
        assert (a.count, a.cum_seconds, a.self_seconds) == (1, 5.0, 3.0)
        b = p.get("a/b")
        assert (b.count, b.cum_seconds, b.self_seconds) == (2, 2.0, 2.0)
        assert p.total_seconds() == 5.0

    def test_sibling_roots_each_get_their_own_path(self):
        p = _ticking()
        with p.span("a"):
            pass
        with p.span("b"):
            pass
        assert list(p.dump()) == ["a", "b"]
        assert p.total_seconds() == 2.0

    def test_open_span_not_reported_until_it_exits(self):
        p = _ticking()
        span = p.span("a")
        span.__enter__()
        assert p.dump() == {}
        span.__exit__(None, None, None)
        assert list(p.dump()) == ["a"]

    def test_span_name_must_be_a_path_segment(self):
        p = Profiler()
        with pytest.raises(ObservabilityError):
            p.span("")
        with pytest.raises(ObservabilityError):
            p.span("a/b")

    def test_get_returns_none_for_unknown_path(self):
        assert Profiler().get("nope") is None

    def test_stat_objects_expose_slots(self):
        stat = SpanStat()
        assert (stat.count, stat.cum_seconds, stat.self_seconds) == (0, 0.0, 0.0)


class TestReusableHandles:
    def test_called_handle_wraps_like_the_with_form(self):
        wrapped, plain = _ticking(), _ticking()
        square = wrapped.span("f")(lambda x, scale=1: x * x * scale)
        with wrapped.span("outer"):
            assert square(3, scale=2) == 18
        with plain.span("outer"):
            with plain.span("f"):
                pass
        assert wrapped.dump() == plain.dump()

    def test_called_handle_keeps_the_signature(self):
        # Every parameter kind passes through, defaults included, and
        # parameters named like the wrapper's own helpers stay the
        # caller's.
        def f(a, /, b, c=2, *rest, span, name="n", **kw):
            return a, b, c, rest, span, name, kw

        p = _ticking()
        wrapped = p.span("f")(f)
        assert wrapped(1, 2, span="s") == (1, 2, 2, (), "s", "n", {})
        assert wrapped(1, b=3, span=0, name="x", z=9) == (
            1, 3, 2, (), 0, "x", {"z": 9})
        assert wrapped(1, 2, 3, 4, 5, span=None) == (
            1, 2, 3, (4, 5), None, "n", {})
        with pytest.raises(TypeError):
            wrapped(1, 2)
        assert p.get("f").count == 3

    def test_called_handle_wraps_bound_methods(self):
        class Layer:
            def work(self, x, scale=1):
                return (self, x * scale)

        layer, p = Layer(), _ticking()
        wrapped = p.span("w")(layer.work)
        assert wrapped(2) == (layer, 2)
        assert wrapped(x=2, scale=3) == (layer, 6)
        assert p.get("w").count == 2

    def test_called_handle_closes_its_span_on_error(self):
        p = _ticking()

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            p.span("f")(boom)()
        assert p.get("f").count == 1

    def test_cached_handle_reentered_per_call(self):
        p = _ticking()
        handle = p.span("x")
        for _ in range(3):
            with handle:
                pass
        assert p.get("x").count == 3

    def test_shared_handle_recursion_nests_by_order(self):
        p = _ticking()
        handle = p.span("x")
        with handle:
            with handle:
                pass
        assert list(p.dump()) == ["x", "x/x"]
        assert p.get("x").count == 1
        assert p.get("x/x").count == 1

    def test_handle_nests_under_whatever_is_open(self):
        p = _ticking()
        handle = p.span("inner")
        with p.span("a"):
            with handle:
                pass
        with p.span("b"):
            with handle:
                pass
        assert list(p.dump()) == ["a", "a/inner", "b", "b/inner"]


class TestOutOfOrderDetection:
    def test_mismatched_exit_raises_at_read_time(self):
        p = _ticking()
        a = p.span("a")
        b = p.span("b")
        a.__enter__()
        b.__enter__()
        a.__exit__(None, None, None)  # b is still the innermost span
        with pytest.raises(ObservabilityError, match="closed out of order"):
            p.dump()

    def test_exit_without_any_open_span_raises(self):
        p = _ticking()
        stray = p.span("a")
        stray.__exit__(None, None, None)
        with pytest.raises(ObservabilityError, match="closed out of order"):
            p.dump()


class TestDump:
    def test_dump_is_plain_sorted_data(self):
        p = _ticking()
        with p.span("b"):
            pass
        with p.span("a"):
            pass
        dump = p.dump()
        assert list(dump) == ["a", "b"]
        assert dump["a"] == {
            "count": 1, "cum_seconds": 1.0, "self_seconds": 1.0,
        }
        assert json.loads(json.dumps(dump)) == dump

    def test_dump_survives_a_buffer_flush_midstream(self):
        p = _ticking()
        p._flush_at = 4  # force a drain during recording
        with p.span("a"):
            for _ in range(5):
                with p.span("b"):
                    pass
        assert p.get("a/b").count == 5
        assert p.get("a").count == 1


class TestMergeWorkerProfiles:
    def _dump(self, count=1, cum=2.0, self_seconds=1.0, path="sweep.point"):
        return {path: {"count": count, "cum_seconds": cum,
                       "self_seconds": self_seconds}}

    def test_counts_and_seconds_sum_into_parent(self):
        parent = _ticking()
        with parent.span("sweep.point"):
            pass
        merged = merge_worker_profiles(
            parent, [self._dump(count=2, cum=4.0, self_seconds=3.0)]
        )
        assert merged is parent
        stat = parent.get("sweep.point")
        assert stat.count == 3
        assert stat.cum_seconds == 5.0
        assert stat.self_seconds == 4.0

    def test_merge_is_order_independent(self):
        d1 = self._dump(count=1, cum=1.0, self_seconds=1.0)
        d2 = self._dump(count=2, cum=5.0, self_seconds=2.0, path="cache.lookup")
        a = merge_worker_profiles(Profiler(), [d1, d2]).dump()
        b = merge_worker_profiles(Profiler(), [d2, d1]).dump()
        assert a == b

    def test_empty_iterable_is_a_noop(self):
        parent = _ticking()
        with parent.span("a"):
            pass
        before = parent.dump()
        assert merge_worker_profiles(parent, []).dump() == before

    def test_empty_span_path_rejected(self):
        with pytest.raises(ObservabilityError, match="empty span path"):
            merge_worker_profiles(
                Profiler(), [{"": {"count": 1, "cum_seconds": 1.0,
                                   "self_seconds": 1.0}}]
            )

    def test_malformed_snapshot_rejected(self):
        with pytest.raises(ObservabilityError, match="malformed"):
            merge_worker_profiles(
                Profiler(), [{"sweep.point": {"count": 1}}]
            )
        with pytest.raises(ObservabilityError, match="malformed"):
            merge_worker_profiles(
                Profiler(),
                [{"sweep.point": {"count": "x", "cum_seconds": 1.0,
                                  "self_seconds": 1.0}}],
            )


class TestRenderers:
    def _profiler(self):
        p = _ticking()
        with p.span("a"):          # cum 5, self 3
            with p.span("b"):      # cum 2 across 2 calls
                pass
            with p.span("b"):
                pass
        return p

    def test_tree_indents_children_under_hottest_first(self):
        p = self._profiler()
        with p.span("c"):
            pass
        text = render_profile(p.dump())
        lines = text.splitlines()
        assert lines[0].split() == ["span", "count", "cum", "(s)",
                                    "self", "(s)", "cum%"]
        body = lines[2:]
        # Roots ordered by cumulative seconds: a (5s) before c (1s),
        # with b indented under a.
        assert body[0].startswith("a ")
        assert body[1].startswith("  b")
        assert body[2].startswith("c ")

    def test_tree_percentages_default_to_root_total(self):
        text = render_profile(self._profiler().dump())
        a_row = next(l for l in text.splitlines() if l.startswith("a "))
        assert a_row.rstrip().endswith("100.0")

    def test_tree_total_seconds_override_sets_denominator(self):
        text = render_profile(self._profiler().dump(), total_seconds=10.0)
        a_row = next(l for l in text.splitlines() if l.startswith("a "))
        assert a_row.rstrip().endswith("50.0")

    def test_renderers_accept_dumps_and_empty_sources(self):
        dump = self._profiler().dump()
        assert render_profile(dump).splitlines()[2].startswith("a ")
        assert render_profile({}) == "(no spans recorded)"
        assert render_hot_spans({}) == "(no spans recorded)"

    def test_hot_list_orders_by_self_seconds(self):
        text = render_hot_spans(self._profiler().dump())
        rows = [row.rstrip() for row in text.splitlines()[2:]]
        assert rows[0].endswith("a")
        assert rows[1].endswith("a/b")

    def test_hot_list_top_limits_rows(self):
        text = render_hot_spans(self._profiler().dump(), top=1)
        assert len(text.splitlines()) == 3  # header, rule, one row

    def test_hot_list_rejects_nonpositive_top(self):
        with pytest.raises(ObservabilityError, match="top must be"):
            render_hot_spans(self._profiler().dump(), top=0)

    def test_unregistered_spans_flags_unknown_names_only(self):
        p = _ticking()
        with p.span("workflow.run"):
            with p.span("mystery.section"):
                pass
        assert unregistered_spans(p.dump()) == ["mystery.section"]
        assert unregistered_spans({}) == []


class TestSpanRegistry:
    def test_names_are_namespaced_and_described(self):
        for name, description in PROFILE_SPANS.items():
            assert "." in name and "/" not in name
            assert description


def _trace(steps=8):
    return synthetic_amr_trace(
        SyntheticAMRConfig(steps=steps, nranks=64, base_cells=2e7,
                           sim_cost_per_cell=1.0, growth=1.5, seed=0)
    )


def _config():
    return WorkflowConfig(mode=Mode.GLOBAL, sim_cores=1024, staging_cores=64,
                          spec=titan(), analysis_cost_per_cell=0.035)


class TestProfiledWorkflow:
    @pytest.fixture(scope="class")
    def profiled_run(self):
        profiler = Profiler()
        result = run_workflow(_config(), _trace(), profiler=profiler)
        return profiler, result

    def test_profiled_run_is_bitwise_identical(self, profiled_run):
        _profiler, instrumented = profiled_run
        plain = run_workflow(_config(), _trace())
        assert plain == instrumented

    def test_run_opens_every_per_step_span(self, profiled_run):
        profiler, result = profiled_run
        decide = "workflow.run/sim.run/workflow.decide"
        assert profiler.get(decide).count == len(result.steps)
        assert profiler.get(f"{decide}/engine.adapt").count == len(result.steps)
        assert profiler.get(f"{decide}/monitor.snapshot").count == len(
            result.steps
        )

    def test_every_recorded_name_is_registered(self, profiled_run):
        profiler, _result = profiled_run
        assert unregistered_spans(profiler.dump()) == []

    def test_attribution_covers_the_run(self, profiled_run):
        profiler, _result = profiled_run
        run = profiler.get("workflow.run")
        sim = profiler.get("workflow.run/sim.run")
        assert run.count == 1
        # The event loop dominates the run's wall time.
        assert 0.0 < sim.cum_seconds <= run.cum_seconds


class TestMergeDuplicateProfileDumps:
    """Profile dumps are deltas too: re-delivery doubles every tally."""

    def test_duplicate_dump_doubles_counts_and_seconds(self):
        dump = {"sweep.point": {"count": 2, "cum_seconds": 4.0,
                                "self_seconds": 3.0}}
        parent = merge_worker_profiles(Profiler(), [dump, dump])
        stat = parent.get("sweep.point")
        assert stat.count == 4
        assert stat.cum_seconds == 8.0
        assert stat.self_seconds == 6.0

    def test_duplicate_merge_into_live_parent_stats(self):
        parent = _ticking()
        with parent.span("sweep.point"):
            pass
        base = parent.get("sweep.point").count
        dump = {"sweep.point": {"count": 1, "cum_seconds": 1.0,
                                "self_seconds": 1.0}}
        merge_worker_profiles(parent, [dump])
        merge_worker_profiles(parent, [dump])
        assert parent.get("sweep.point").count == base + 2
