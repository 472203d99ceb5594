"""Guards that keep the coupled run's per-step slow paths gone.

A state is derived with ``OperationalState._derive`` or built with
``OperationalState._from_fields``; ``dataclasses.replace`` re-runs the
frozen constructor (one ``object.__setattr__`` per field).  And an
event's ``triggered`` is a plain field, not a property computed on every
read.
"""

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

import repro
from repro.core.state import OperationalState
from repro.experiments.common import default_hints
from repro.hpc.event import AllOf, AnyOf, Event, Process, Timeout
from repro.hpc.systems import titan
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
