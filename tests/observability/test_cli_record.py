"""The ``--record`` run record of the single-run CLI subcommands.

Writing the record must not change what a subcommand prints (beyond the
one line naming the file), and the record must hold exactly what the
library produces for the same run: the ``result_to_json`` payload and,
written one per line, the tracer's JSONL bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.__main__
import repro.service  # noqa: F401 - the import that once added a counter kind
import repro.workflow
from repro.__main__ import _quickstart, main
from repro.faults import SCENARIOS
from repro.hpc.kernel import KERNEL_EVENT_KINDS
from repro.observability import MetricsRegistry, Tracer, load_record
from repro.workflow import CoupledWorkflow
from repro.workflow.report import result_to_json
from tests.observability.jsonl import to_jsonl

#: SHA-256 of ``audit --steps 20 --prometheus PATH``'s file, captured
#: when the exporter still read the metrics registry and ledger directly.
_PINNED_PROMETHEUS_SHA256 = (
    "4c276ff0a9b95c28acdf1812815e0f67175338be8bb00064e57b9bf1bf5decfb"
)

_COMMANDS = {
    "trace": ["trace", "--steps", "5"],
    "audit": ["audit", "--steps", "5"],
    "faults": ["faults", "blackout", "--steps", "5"],
}


@pytest.fixture(scope="module")
def traced_record(tmp_path_factory):
    """``trace --steps 5 --record``'s record, plus the same run replayed
    in-process with the same hooks."""
    path = tmp_path_factory.mktemp("record") / "run.json"
    assert main(["trace", "--steps", "5", "--record", str(path)]) == 0
    config, trace = _quickstart("global", 5, 42)
    tracer = Tracer()
    workflow = CoupledWorkflow(config, trace, tracer=tracer,
                               metrics=MetricsRegistry())
    return load_record(path), workflow.run(), tracer, workflow


class TestRecordFlag:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_stdout_unchanged_but_for_the_wrote_line(
        self, command, capsys, tmp_path
    ):
        argv = _COMMANDS[command]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        path = tmp_path / "run.json"
        assert main(argv + ["--record", str(path)]) == 0
        recorded = capsys.readouterr().out
        assert recorded == plain + f"\nwrote record to {path}\n"
        assert load_record(path)["label"]

    def test_result_is_the_result_to_json_payload(self, traced_record):
        record, result, _tracer, _workflow = traced_record
        assert record["result"] == json.loads(result_to_json(result))

    def test_events_one_per_line_are_the_trace_jsonl(self, traced_record):
        record, _result, tracer, _workflow = traced_record
        lines = "".join(json.dumps(e) + "\n" for e in record["events"])
        assert lines == to_jsonl(tracer)

    def test_counters_are_the_kernel_tallies(self, traced_record):
        record, _result, _tracer, workflow = traced_record
        assert record["counters"] == workflow.sim.kernel.counters.as_dict()

    def test_prometheus_exposition_matches_pinned_digest(self, capsys,
                                                         tmp_path):
        path = tmp_path / "run.prom"
        assert main(["audit", "--steps", "20", "--prometheus", str(path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _PINNED_PROMETHEUS_SHA256


class TestRecordEvents:
    """``run_record`` builds its events without parsing the JSONL text;
    each must still dump to exactly its line of ``to_jsonl(Tracer)``.
    Views that inject no tracer (``audit``) get one here."""

    @pytest.mark.parametrize(
        "argv",
        [["trace"], ["audit", "--bias", "1.7"]]
        + [["faults", name] for name in sorted(SCENARIOS)],
        ids=lambda argv: "-".join(argv),
    )
    def test_each_event_dumps_to_its_jsonl_line(self, argv, monkeypatch, capsys):
        records = []
        run_record = repro.workflow.run_record

        def spy(result, **hooks):
            record = run_record(result, **hooks)
            records.append((record, hooks["tracer"]))
            return record

        def traced(args, hooks, label, **kwargs):
            hooks.setdefault("tracer", Tracer())
            return observe(args, hooks, label, **kwargs)

        observe = repro.__main__._observe
        monkeypatch.setattr(repro.__main__, "_observe", traced)
        monkeypatch.setattr(repro.workflow, "run_record", spy)
        assert main(argv) == 0
        capsys.readouterr()
        (record, tracer), = records
        lines = to_jsonl(tracer).splitlines()
        assert len(lines) == len(record["events"]) > 0
        for event, line in zip(record["events"], lines):
            assert json.dumps(event) == line


class TestCounterKinds:
    """A record's ``counters`` list all six kernel event kinds in every
    process: the ``tenant`` kind once appeared only in processes that
    had imported ``repro.service``."""

    def test_fresh_process_record_equals_in_process_run(self, tmp_path, capsys):
        fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
        src = str(Path(repro.__main__.__file__).resolve().parent.parent)
        subprocess.run(
            [sys.executable, "-m", "repro", "trace", "--steps", "4",
             "--record", str(fresh)],
            env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
            capture_output=True, check=True,
        )
        assert main(["trace", "--steps", "4", "--record", str(here)]) == 0
        capsys.readouterr()
        processed = json.loads(fresh.read_text())["counters"]["processed"]
        assert list(processed) == list(KERNEL_EVENT_KINDS) == [
            "control", "timer", "compute", "transfer", "staging", "tenant"]
        assert processed == json.loads(here.read_text())["counters"]["processed"]
