"""Truncation behaviour of the trace renderers.

A wrapped ring buffer must announce itself in every view of the run
record; an unwrapped one, or a record written before the ``trace``
section existed, must not.
"""

from repro.observability import (
    Tracer,
    decision_timeline,
    fault_timeline,
    occupancy_gantt,
)
from repro.observability.events import ADAPT_DECISION, STEP_END, STEP_START
from repro.workflow import WorkflowResult, run_record

BANNER = "!! trace truncated"


def _record(tracer):
    return run_record(WorkflowResult(mode="global"), tracer=tracer)


def _small_traced_run(capacity):
    tracer = Tracer(capacity=capacity)
    now = [0.0]
    tracer.bind_clock(lambda: now[0])
    for step in range(6):
        tracer.emit(STEP_START, step=step)
        tracer.emit(ADAPT_DECISION, step=step, factor=1, placement="in_situ",
                    staging_cores=None, est_intransit_remaining=0.0,
                    est_insitu_time=1.0, est_intransit_time=2.0)
        now[0] += 1.0
        tracer.emit(STEP_END, step=step)
    return _record(tracer)


class TestTruncationBanner:
    def test_unwrapped_trace_has_no_banner(self):
        record = _small_traced_run(capacity=1000)
        assert record["trace"] == {"capacity": 1000, "dropped": 0}
        assert BANNER not in decision_timeline(record)
        assert BANNER not in occupancy_gantt(record)

    def test_wrapped_trace_banners_both_views(self):
        record = _small_traced_run(capacity=8)
        assert record["trace"]["dropped"] == 18 - 8
        for render in (decision_timeline, occupancy_gantt, fault_timeline):
            text = render(record)
            first = text.splitlines()[0]
            assert first.startswith(BANNER)
            assert "capacity 8" in first
            assert "evicted 10" in first
            assert "newest 8" in first

    def test_empty_trace_paths(self):
        for record in (_record(Tracer()), _record(None)):
            assert decision_timeline(record) == \
                "(no adaptation decisions in trace)"
            assert occupancy_gantt(record) == "(empty trace)"
            assert fault_timeline(record) == "(no fault activity in trace)"

    def test_wrapped_but_decisionless_trace_still_banners(self):
        tracer = Tracer(capacity=2)
        for step in range(5):
            tracer.emit(STEP_START, step=step)
        timeline = decision_timeline(_record(tracer))
        assert timeline.splitlines()[0].startswith(BANNER)
        assert "(no adaptation decisions in trace)" in timeline

    def test_renderers_still_show_surviving_events(self):
        record = _small_traced_run(capacity=8)
        timeline = decision_timeline(record)
        # Capacity 8 keeps the newest 8 of 18 events: steps 3-5 survive
        # with their decisions intact.
        assert " 5" in timeline
        gantt = occupancy_gantt(record)
        assert "sim      |" in gantt

    def test_record_without_trace_section_has_no_banner(self):
        record = _small_traced_run(capacity=8)
        del record["trace"]
        assert not decision_timeline(record).startswith(BANNER)
        assert not occupancy_gantt(record).startswith(BANNER)
