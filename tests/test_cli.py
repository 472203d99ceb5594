"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCLI:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

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
        assert expected == set(EXPERIMENTS)

    def test_descriptions_nonempty(self):
        for name, (description, fn) in EXPERIMENTS.items():
            assert description
            assert callable(fn)


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
