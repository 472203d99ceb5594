"""Smoke tests for the ``repro faults`` CLI subcommand."""

import pytest

from repro.__main__ import SUBCOMMANDS, main
from repro.faults import SCENARIOS
from repro.observability import load_record
from repro.observability.events import FAULT_INJECTED


class TestFaultsCommand:
    def test_list_names_every_scenario(self, capsys):
        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_scenario_run_reports_plan_deltas_and_timeline(self, capsys):
        assert main(["faults", "blackout", "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "Fault plan" in out
        assert "staging.core_loss" in out
        assert "Time to solution" in out
        assert "delta" in out
        assert "Fault/recovery timeline" in out
        assert "inject staging.core_loss" in out
        assert "faults.injected" in out  # the metrics table

    def test_record_holds_the_injections(self, capsys, tmp_path):
        path = tmp_path / "faults.json"
        assert main(["faults", "core-loss", "--steps", "5",
                     "--record", str(path)]) == 0
        events = load_record(path)["events"]
        injected = [e for e in events if e["kind"] == FAULT_INJECTED]
        kinds = {e["fields"]["fault"] for e in injected}
        assert kinds == {"staging.core_loss", "staging.core_restore"}

    def test_missing_scenario_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["faults"])

    def test_unknown_scenario_fails_loudly(self, capsys):
        from repro.errors import FaultError

        with pytest.raises(FaultError):
            main(["faults", "meteor-strike", "--steps", "4"])

    def test_faults_listed_as_subcommand(self, capsys):
        assert "faults" in SUBCOMMANDS
        assert main(["list"]) == 0
        assert "faults" in capsys.readouterr().out
