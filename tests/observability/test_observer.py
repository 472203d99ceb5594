"""The observer's null objects: drop-in for the real hooks, and the only
place left that knows a hook may be absent; :func:`instrument`, the only
way spans reach the layers; and :func:`publish`, the only way metrics
reach a registry."""

import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.hpc.systems import titan
from repro.observability import (
    NULL_OBSERVER,
    EmaTimer,
    Gauge,
    MetricsRegistry,
    Observer,
    PredictionLedger,
    Profiler,
    Tracer,
)
from repro.observability.observer import (
    NULL_LEDGER,
    NULL_TRACER,
    instrument,
    publish,
    section,
)
from repro.workflow import Mode, WorkflowConfig, run_workflow
from repro.workload import SyntheticAMRConfig, synthetic_amr_trace

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (null object, method name, real class defining that method).
_PAIRS = [
    (NULL_TRACER, "bind_clock", Tracer),
    (NULL_TRACER, "emit", Tracer),
    (NULL_LEDGER, "bind_clock", PredictionLedger),
    (NULL_LEDGER, "predict", PredictionLedger),
    (NULL_LEDGER, "resolve", PredictionLedger),
    (NULL_LEDGER, "has_pending", PredictionLedger),
    (NULL_LEDGER, "record_placement", PredictionLedger),
    (NULL_LEDGER, "resolve_placement", PredictionLedger),
    (NULL_LEDGER, "finalize", PredictionLedger),
]


def _params(func):
    """Name, kind and default of every parameter (annotations ignored)."""
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(func).parameters.values()
    ]


def _run(**hooks):
    trace = synthetic_amr_trace(SyntheticAMRConfig(
        steps=6, nranks=64, base_cells=2e7, sim_cost_per_cell=1.0,
        growth=1.5, seed=0))
    config = WorkflowConfig(mode=Mode.GLOBAL, sim_cores=1024,
                            staging_cores=64, spec=titan(),
                            analysis_cost_per_cell=0.035)
    return run_workflow(config, trace, **hooks)


class TestSignatureParity:
    @pytest.mark.parametrize(
        "null, name, real", _PAIRS,
        ids=[f"{type(n).__name__}.{m}" for n, m, _ in _PAIRS])
    def test_null_method_matches_real_signature(self, null, name, real):
        assert _params(getattr(type(null), name)) == _params(getattr(real, name))

    def test_every_null_method_has_a_real_counterpart(self):
        covered = {(type(n), m) for n, m, _ in _PAIRS}
        for null in {n for n, _, _ in _PAIRS}:
            for name, member in vars(type(null)).items():
                if callable(member) and not name.startswith("_"):
                    assert (type(null), name) in covered

    def test_enabled_flags(self):
        assert NULL_TRACER.enabled is False
        assert NULL_LEDGER.enabled is False
        assert Tracer().enabled is True
        assert PredictionLedger.enabled is True


class TestObserver:
    def test_none_maps_to_the_shared_nulls(self):
        observer = Observer()
        assert observer == NULL_OBSERVER
        assert observer.tracer is NULL_TRACER
        assert observer.ledger is NULL_LEDGER

    def test_holds_only_the_tracer_and_the_ledger(self):
        assert [f.name for f in fields(Observer)] == ["tracer", "ledger"]

    def test_real_hooks_pass_through_even_when_empty(self):
        # An empty Tracer/PredictionLedger is falsy (they define __len__);
        # the observer must keep them, not swap in a null.
        tracer, ledger = Tracer(), PredictionLedger()
        assert not tracer and not ledger
        observer = Observer(tracer=tracer, ledger=ledger)
        assert observer.tracer is tracer
        assert observer.ledger is ledger

    def test_bind_clock_binds_tracer_and_ledger(self):
        tracer, ledger = Tracer(), PredictionLedger()
        Observer(tracer=tracer, ledger=ledger).bind_clock(lambda: 7.5)
        assert tracer.emit("run.start").ts == 7.5
        assert ledger.predict("sim_step_time", 0, 1.0).predicted_at == 7.5


class _Layer:
    def __init__(self):
        self.calls = []

    def work(self, x, scale=1):
        self.calls.append(x)
        return x * scale

    def fail(self):
        raise ValueError("boom")


class TestInstrument:
    def test_without_a_profiler_nothing_is_wrapped(self):
        layer = _Layer()
        instrument(None, layer, {"work": "layer.work"})
        assert "work" not in vars(layer)

    def test_each_call_runs_inside_its_span(self):
        layer, profiler = _Layer(), Profiler()
        instrument(profiler, layer, {"work": "layer.work"})
        with profiler.span("outer"):
            assert layer.work(3, scale=2) == 6
        assert layer.work(4) == 4
        assert layer.calls == [3, 4]
        assert {p: s["count"] for p, s in profiler.dump().items()} == {
            "layer.work": 1, "outer": 1, "outer/layer.work": 1}

    def test_a_raising_call_still_closes_its_span(self):
        layer, profiler = _Layer(), Profiler()
        instrument(profiler, layer, {"fail": "layer.fail"})
        with pytest.raises(ValueError, match="boom"):
            layer.fail()
        assert profiler.dump()["layer.fail"]["count"] == 1

    def test_any_context_manager_handle_works(self):
        # A duck-typed hook whose handles are plain context managers,
        # bound once per wrapped method.
        names, entered = [], []

        class Handle:
            def __enter__(self):
                entered.append("enter")

            def __exit__(self, *exc):
                entered.append("exit")
                return False

        class Hook:
            def span(self, name):
                names.append(name)
                return Handle()

        layer = _Layer()
        instrument(Hook(), layer, {"work": "layer.work", "fail": "layer.fail"})
        assert layer.work(1) + layer.work(2) == 3
        with pytest.raises(ValueError, match="boom"):
            layer.fail()
        assert names == ["layer.work", "layer.fail"]
        assert entered == ["enter", "exit"] * 3

    def test_deleting_the_attribute_unwires_it(self):
        layer, profiler = _Layer(), Profiler()
        instrument(profiler, layer, {"work": "layer.work"})
        del layer.work
        layer.work(1)
        assert profiler.dump() == {}

    def test_section_spans_a_block_or_does_nothing(self):
        profiler = Profiler()
        with section(profiler, "block"):
            pass
        with section(None, "block"):
            pass
        assert profiler.dump()["block"]["count"] == 1


class TestPublish:
    def test_without_a_registry_the_tallies_are_not_read(self):
        def tallies():
            raise AssertionError("read without a registry")

        publish(None, tallies)

    def test_each_tally_fills_its_instrument(self):
        timer = EmaTimer()
        for seconds in (0.1, 0.7, 0.2):
            timer.observe(seconds)
        registry = MetricsRegistry()
        publish(registry, lambda: {
            "steps": 3, "bytes": 2.5, "idle": 0, "none": 0.0,
            "cores": Gauge(0), "lat": timer, "empty": EmaTimer(),
        })
        assert registry.names() == ["bytes", "cores", "lat", "steps"]
        assert registry.counter("steps").value == 3.0
        assert registry.counter("bytes").value == 2.5
        assert registry.gauge("cores").value == 0.0
        # An empty registry timer takes the tally bit for bit.
        assert registry.dump()["lat"] == {
            "kind": "timer", "value": timer.value, "count": 3,
            "total": timer.total, "alpha": 0.3}

    def test_a_shared_registry_sums_counters(self):
        registry = MetricsRegistry()
        publish(registry, lambda: {"steps": 3})
        publish(registry, lambda: {"steps": 4})
        assert registry.counter("steps").value == 7.0


class TestNoStrayInstruments:
    def test_null_observed_run_keeps_no_state(self):
        _run(tracer=Tracer())
        for null in (NULL_TRACER, NULL_LEDGER):
            assert not hasattr(null, "__dict__")
            assert type(null).__slots__ == ()

    def test_only_written_instruments_are_registered(self):
        # Instruments are created lazily by name: a pre-created one would
        # show up as a zero counter or an empty timer.
        metrics = MetricsRegistry()
        _run(metrics=metrics)
        assert metrics.names()
        for name, snap in metrics.dump().items():
            if snap["kind"] == "counter":
                assert snap["value"] > 0, name
            elif snap["kind"] == "timer":
                assert snap["count"] > 0, name
        assert "faults.injected" not in metrics.names()
        assert "placement.fallbacks" not in metrics.names()


#: Files whose hook ``is None`` tests decide an output's *format* (which
#: sections, keys or merge targets exist), not whether to publish.
_GUARD_ALLOWED = {
    "observability/observer.py",
    "workflow/report.py",
    "experiments/parallel.py",
}
_HOOK_GUARD = re.compile(
    r"\b_?(tracer|metrics|ledger|profiler)[a-z_]* is (not )?None")
_SPAN_GUARD = re.compile(r"\b_?[a-z_]*span is (not )?None")
#: Where a ``.span(`` call may appear: the profiler and its wiring, and
#: the sweep runner's ``sweep.point`` root.  Every layer's spans come
#: from :func:`instrument`, and the CLI's sections from :func:`section`.
_SPAN_CALL_ALLOWED = ("observability/", "experiments/parallel.py")
_SPAN_CALL = re.compile(r"\.span\(")
#: An instrument lookup.  Components count in plain attributes, and only
#: :func:`publish` (and the registry's own merge) writes a registry.
_METRIC_CALL = re.compile(r"\.(counter|gauge|timer)\(")


class TestGuardLint:
    def _matches(self, pattern):
        hits = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    hits.append((rel, lineno, line.strip()))
        return hits

    def test_hook_guards_only_at_output_format_sites(self):
        stray = [hit for hit in self._matches(_HOOK_GUARD)
                 if hit[0] not in _GUARD_ALLOWED]
        assert stray == []

    def test_no_span_site_has_an_unspanned_path(self):
        assert self._matches(_SPAN_GUARD) == []

    def test_spans_are_opened_only_at_the_edges(self):
        stray = [hit for hit in self._matches(_SPAN_CALL)
                 if not hit[0].startswith(_SPAN_CALL_ALLOWED)]
        assert stray == []

    def test_instruments_are_looked_up_only_in_observability(self):
        stray = [hit for hit in self._matches(_METRIC_CALL)
                 if not hit[0].startswith("observability/")]
        assert stray == []
