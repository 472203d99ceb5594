"""Tests for the ``python -m repro`` command-line interface."""

import hashlib

import pytest

from repro.__main__ import main
from repro.experiments.parallel import SWEEPS


class TestCLI:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name, spec in SWEEPS.items():
            assert f"{name}  " in out
            assert spec.description in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fig4_runs_end_to_end(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "PASS" in out

    def test_registry_complete(self):
        # Every evaluated figure/table of the paper has a CLI entry.
        expected = {"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                    "fig10", "fig11", "table2", "ablations", "objectives",
                    "fig_triggers", "fig_tenants"}
        assert expected == set(SWEEPS)

    def test_descriptions_nonempty(self):
        for name, spec in SWEEPS.items():
            assert spec.name == name
            assert spec.description


#: SHA-256 of each deterministic view's stdout, captured before the CLI
#: read experiments from ``SWEEPS`` and its views rendered run records.
_PINNED_STDOUT_SHA256 = {
    "list": "2125e0841e05c1ba2e6d75fa9f062d837ff59f380d09d2f8a273ce41b2265f14",
    "trace": "6b3f2ed9f533b9b555fd43aa44d7545b92a2e109c0e4d14cb4db4b951b7bfa87",
    "trace --steps 5 --width 40":
        "4e74685d3224e4ec3b0cbef188e31b2963010b6413104a0296ea4327c029b4e8",
    "audit": "d5cd7db120c1bd7b6db922250d737c732b8631de9065835964f5819e5f8ac9ff",
    "audit --bias 1.5":
        "6e5872475bd748afcba57ff31b879476907f8396ae746116a2f1f14906d032bc",
    "faults blackout":
        "2c89e084a41d7a1c93ba92ecb63bf674c85eb8893d42bf0c47ac67ce87f13ca4",
    "faults link-brownout":
        "6d265ad89a89851228f4b3bae8241d0f26ea472bfe7421503171084d1c48250f",
    "faults cascade --mode adaptive_middleware":
        "60664b66f6806754e8836e36889f5df97cc0603ca5fd972c67ef2bd8c8e9c0e8",
    "fig7": "617dc0889e9b2032d7f1f035d7117711919c3962a9dc576e2eed2ff9ffb8a4aa",
}


class TestStdoutDigests:
    @pytest.mark.parametrize("command", list(_PINNED_STDOUT_SHA256))
    def test_stdout_matches_pinned_digest(self, command, capsys):
        assert main(command.split()) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == _PINNED_STDOUT_SHA256[command]


class TestRunAllCLI:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, monkeypatch):
        from repro.experiments.cache import reset_default_cache

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        reset_default_cache()
        yield
        reset_default_cache()

    def test_run_all_only_fig4(self, capsys):
        assert main(["run-all", "--only", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "### fig4" in out
        assert "jobs=1" in out
        assert "Cache metrics" in out

    def test_run_all_with_workers(self, capsys):
        assert main(["run-all", "--jobs", "2", "--only", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "### fig4" in out
        assert "jobs=2" in out

    def test_run_all_unknown_experiment_fails(self, capsys):
        assert main(["run-all", "--only", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_run_all_listed_as_subcommand(self, capsys):
        from repro.__main__ import SUBCOMMANDS

        assert "run-all" in SUBCOMMANDS
        assert main(["list"]) == 0
        assert "run-all" in capsys.readouterr().out


class TestTenantsCLI:
    def test_listed_as_subcommand(self, capsys):
        from repro.__main__ import SUBCOMMANDS

        assert "tenants" in SUBCOMMANDS
        assert main(["list"]) == 0
        assert "tenants" in capsys.readouterr().out

    def test_list_policies(self, capsys):
        from repro.service import ADMISSION_POLICIES

        assert main(["tenants", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ADMISSION_POLICIES:
            assert name in out

    def test_smoke_runs_and_passes(self, capsys):
        assert main(["tenants", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "tenant smoke: OK" in out
        assert "Multi-tenant contention" in out

    def test_single_point(self, capsys):
        assert main(
            ["tenants", "--policy", "smallest", "--tenants", "2",
             "--steps", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "smallest" in out

    def test_unknown_policy_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(["tenants", "--policy", "bogus"])
        assert "unknown admission policy" in capsys.readouterr().err
