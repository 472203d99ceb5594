"""Guards that keep the coupled run's per-step slow paths gone.

A state is derived with ``OperationalState._derive`` or built with
``OperationalState._from_fields``; ``dataclasses.replace`` re-runs the
frozen constructor (one ``object.__setattr__`` per field).  An event's
``triggered`` is a plain field, not a property computed on every read.
A process wakes in one frame: the Python calls per ``Timeout`` round
trip and per completed transfer are pinned, a count the host's speed
does not move.  And event and process names are ``%`` templates
formatted only when read, never f-strings built per event.
"""

import ast
import dataclasses
import functools
import inspect
import re
import sys
from pathlib import Path

import pytest

import repro
from repro.core.state import OperationalState
from repro.errors import SimulationError
from repro.experiments.common import default_hints
from repro.faults import FaultInjector, FaultPlan, ObjectDrop
from repro.hpc.event import AllOf, AnyOf, Event, Process, Simulator, Timeout
from repro.hpc.network import Network
from repro.hpc.systems import titan
from repro.service import WorkflowService
from repro.staging.area import StagingArea
from repro.workflow import CoupledWorkflow, Mode, WorkflowConfig
from repro.workload import SyntheticAMRConfig, synthetic_amr_trace

SRC = Path(repro.__file__).resolve().parent


def _replace_calls(tree: ast.Module) -> list[int]:
    """Line numbers of ``dataclasses.replace`` calls, however imported."""
    names = set()
    modules = {"dataclasses"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            names |= {a.asname or a.name for a in node.names if a.name == "replace"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "dataclasses"}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            lines.append(node.lineno)
        elif (isinstance(func, ast.Attribute) and func.attr == "replace"
              and isinstance(func.value, ast.Name) and func.value.id in modules):
            lines.append(node.lineno)
    return lines


class TestStateLint:
    def test_no_replace_where_states_live(self):
        """No module that names ``OperationalState`` calls
        ``dataclasses.replace``."""
        stray = []
        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text()
            if "OperationalState" not in text:
                continue
            rel = path.relative_to(SRC).as_posix()
            stray += [(rel, line) for line in _replace_calls(ast.parse(text))]
        assert stray == []

    @pytest.mark.parametrize("mode", [Mode.GLOBAL, Mode.ADAPTIVE_APPLICATION,
                                      Mode.ADAPTIVE_RESOURCE])
    def test_a_coupled_run_never_calls_the_constructor(self, mode, monkeypatch):
        """Snapshots and derived states skip ``__init__``; a ``replace``
        anywhere on the run's path would go through it."""
        calls, derived = [], []
        init, derive = OperationalState.__init__, OperationalState._derive

        def counting_init(self, *args, **kwargs):
            calls.append(kwargs)
            init(self, *args, **kwargs)

        def counting_derive(self, **changes):
            derived.append(changes)
            return derive(self, **changes)

        monkeypatch.setattr(OperationalState, "__init__", counting_init)
        monkeypatch.setattr(OperationalState, "_derive", counting_derive)
        trace = synthetic_amr_trace(SyntheticAMRConfig(
            steps=8, nranks=64, base_cells=5e7, growth=2.0, seed=3))
        config = WorkflowConfig(mode=mode, sim_cores=1024, staging_cores=64,
                                spec=titan(), hints=default_hints())
        workflow = CoupledWorkflow(config, trace)
        workflow.run()
        assert len(workflow.monitor.history) == 8
        assert derived, "the run derived no state"
        assert calls == []


    def test_built_states_share_the_class_key_table(self, make_state):
        """Like the constructor's, the builders' states share the class's
        key table; one private table per kept snapshot is ~3x the memory."""
        state = make_state()
        fields = {f.name: getattr(state, f.name)
                  for f in dataclasses.fields(OperationalState)}
        private = sys.getsizeof(dict(fields))
        assert sys.getsizeof(vars(state)) < private
        for built in (OperationalState._from_fields(fields),
                      state.with_reduction(2), state._derive(step=2)):
            assert sys.getsizeof(vars(built)) < private


class TestEventLint:
    @pytest.mark.parametrize("cls", [Event, Timeout, Process, AllOf, AnyOf])
    def test_triggered_is_a_plain_field(self, cls):
        attr = inspect.getattr_static(cls, "triggered")
        assert not isinstance(attr, property)
        assert attr is False


#: Comprehension frames CPython 3.12 inlines (PEP 709); leaving them out
#: keeps the counts below the same on either side of that change.
_INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _calls(run) -> int:
    """Python-level calls ``run()`` makes: ``sys.setprofile`` "call"
    events, generator resumes included."""
    count = 0

    def profile(frame, event, _arg):
        nonlocal count
        if event == "call" and frame.f_code.co_name not in _INLINED:
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def _calls_per_wait(make_wait) -> float:
    """Calls per completed wait of a process that yields ``wait()`` in a
    loop, ``make_wait(sim)`` giving ``wait`` (a ``functools.partial``,
    which adds no Python frame).  Two loop lengths are differenced, so
    the run loop's and the process's own start and end cancel."""
    counts = []
    for rounds in (10, 30):
        sim = Simulator()
        wait = make_wait(sim)

        def loop(rounds=rounds):
            for _ in range(rounds):
                yield wait()

        sim.process(loop())
        counts.append(_calls(sim.run))
    return (counts[1] - counts[0]) / 20


def _transfer(sim):
    net = Network(sim)
    net.add_link("sim", "staging", bandwidth=1e9)
    return functools.partial(net.transfer, "sim", "staging", 1000)


class TestOneFrameWake:
    def test_timeout_round_trip(self):
        """``timeout``, its kernel push, ``Event._fire``, the ``control``
        push, ``Process._resume`` and the generator's own frame."""
        assert _calls_per_wait(
            lambda sim: functools.partial(sim.timeout, 1.0)) == 6

    def test_completed_transfer(self):
        """Admission, the completion wake-up and the one-frame resume;
        per-transfer event names and clock reads add no calls."""
        assert _calls_per_wait(_transfer) == 23


#: Callee name -> position of its name argument: ``Event(sim, name)``,
#: ``sim.event(name)``, ``sim.process(generator, name)``.
_NAME_SLOT = {"Event": 1, "event": 0, "process": 1}


def _formats(node: ast.expr) -> bool:
    """True for an f-string, a ``%`` expression or a ``.format`` call."""
    return (isinstance(node, ast.JoinedStr)
            or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod))
            or (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "format"))


def _eager_names(tree: ast.Module) -> list[int]:
    """Line numbers of event or process names formatted at the call."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = getattr(func, "id", None) or getattr(func, "attr", None)
        if callee not in _NAME_SLOT:
            continue
        names = [kw.value for kw in node.keywords if kw.arg == "name"]
        names += node.args[_NAME_SLOT[callee]:_NAME_SLOT[callee] + 1]
        lines += [node.lineno for name in names if _formats(name)]
    return lines


def _assert_named(event: Event, name: str) -> None:
    """``event`` reads ``name`` in its repr and its double-trigger error."""
    if not event.triggered:
        event.succeed()
    assert repr(event) == f"<{type(event).__name__} {name!r} triggered>"
    with pytest.raises(SimulationError,
                       match=re.escape(f"event {name!r} already triggered")):
        event.succeed()


class TestNameLint:
    def test_no_name_is_formatted_where_it_is_made(self):
        stray = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            stray += [(rel, line)
                      for line in _eager_names(ast.parse(path.read_text()))]
        assert stray == []

    def test_the_lint_sees_each_eager_form(self):
        tree = ast.parse(
            'Event(sim, f"get({n})")\n'
            'sim.event(name="step=%d" % step)\n'
            'self.sim.process(gen(), "t({})".format(t))\n'
            'sim.process(gen(), "t(%s)", t)\n'
        )
        assert _eager_names(tree) == [1, 2, 3]

    def test_staging_names_read_as_before(self):
        sim = Simulator()
        injector = FaultInjector(FaultPlan([ObjectDrop(step=2, count=1)]))
        injector.attach_simulator(sim)
        net = Network(sim)
        net.add_link("sim", "staging", bandwidth=100.0)
        area = StagingArea(sim, net, core_rate=10.0, total_cores=4,
                           faults=injector)
        injector.arm()
        retried = area.submit(2, nbytes=100.0, work_units=10.0)
        job = area.submit(3, nbytes=1000.0, work_units=10.0)
        sim.run()
        _assert_named(job.ingest_done, "xfer(sim->staging, 1000B)")
        _assert_named(job.done, "analysis(step=3)")
        _assert_named(retried.ingest_done, "retry(ingest(step=2))")
        _assert_named(area._queue.get(), "get(staging-jobs)")

    def test_tenant_watcher_name_reads_as_before(self):
        service = WorkflowService(sim_cores=1024, staging_cores=64)
        started = []
        start = service.sim.process

        def recording(*args, **kwargs):
            started.append(start(*args, **kwargs))
            return started[-1]

        service.sim.process = recording
        trace = synthetic_amr_trace(SyntheticAMRConfig(
            steps=2, nranks=64, base_cells=2e7, seed=0))
        service.submit("solo", WorkflowConfig(
            mode=Mode.GLOBAL, sim_cores=1024, staging_cores=64,
            spec=titan()), trace)
        service.run()
        (watcher,) = [p for p in started if p.name.startswith("tenant(")]
        _assert_named(watcher, "tenant(solo)")
