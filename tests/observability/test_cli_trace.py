"""Smoke tests for the ``repro trace`` CLI subcommand."""

from repro.__main__ import SUBCOMMANDS, main
from repro.observability import load_record
from repro.observability.events import ADAPT_DECISION


class TestTraceCommand:
    def test_runs_and_renders_both_views(self, capsys):
        assert main(["trace", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "Decision timeline" in out
        assert "Occupancy" in out
        assert "Metrics" in out
        assert "sim      |" in out
        assert "staging  |" in out

    def test_record_contains_every_decision_with_inputs(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(["trace", "--steps", "5", "--record", str(path)]) == 0
        events = load_record(path)["events"]
        decisions = [e for e in events if e["kind"] == ADAPT_DECISION]
        # monitor_interval defaults to 1: one decision per step.
        assert len(decisions) == 5
        for event in decisions:
            assert "est_intransit_remaining" in event["fields"]
            assert "est_insitu_time" in event["fields"]

    def test_mode_option(self, capsys):
        assert main(["trace", "--steps", "4",
                     "--mode", "adaptive_middleware"]) == 0
        assert "mode=adaptive_middleware" in capsys.readouterr().out

    def test_trace_listed(self, capsys):
        assert "trace" in SUBCOMMANDS
        assert main(["list"]) == 0
        assert "trace" in capsys.readouterr().out
