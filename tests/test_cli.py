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

    def test_fault_run_that_applies_nothing_says_so(self, capsys):
        """At 8 steps the plan's one ingest drop (step 2) never meets an
        ingest; the view says so after the empty timeline."""
        assert main(["faults", "flaky-ingest", "--steps", "8"]) == 0
        out = capsys.readouterr().out
        assert ("(no fault activity in trace)\n1 planned fault, 0 applied\n"
                in out)

    def test_fault_run_that_applies_a_fault_prints_no_count(self, capsys):
        assert main(["faults", "flaky-ingest"]) == 0
        out = capsys.readouterr().out
        assert "inject staging.object_drop" in out
        assert "applied" not in out


#: SHA-256 of each deterministic view's stdout, captured before the CLI
#: read experiments from ``SWEEPS`` and its views rendered run records.
_PINNED_STDOUT_SHA256 = {
    "list": "2d8834a85a713f42748134758b926717ac862b9456a5b967323156e587fefd68",
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
    # Every experiment id, in SWEEPS order; fig1, fig5 and fig6 equal the
    # digests CI pinned before the gas solver's sweep rewrites.
    "fig1": "63cbb7a348321a6655186ecb2318ecfaa50800aa71cca734c6e4229bef2ba9bb",
    "fig4": "25c9c4707f028e11308c699232b6674c8d35c81a1a6962819293a3d233825a5d",
    "fig5": "60af2b41dc95685711af2735e5080e87614b13d03ec7d372d73dddb1c2c59636",
    "fig6": "83deae4a192e023d7353efc1f51321711383c6a10c72a670d10dc4960f1ed10b",
    "fig7": "617dc0889e9b2032d7f1f035d7117711919c3962a9dc576e2eed2ff9ffb8a4aa",
    "fig8": "51d581628dd8ff1d365d735c34804f803c5aa45785561dfc2e8171b036ae0a7e",
    "fig9": "ac4c59a6f84b223b4223e52a89d7eca8db64b68d2b56fd8c38a5fbc628d40a60",
    "fig10":
        "6472b5b6600b2a57df233c317f3cfa393c8c2a807883f090bc20428e1de508c9",
    "fig11":
        "b5f83bf14aa788c252fd62919f214db9c94c4006d907ac793a2324f9dc3e1c37",
    "table2":
        "4ce6ee803eaf83d770df17df6cf6b8102b01b3db363025cf69ad381ab4bf78a2",
    "ablations":
        "15c074b787e414247d7750c4dad270448c78a342830992642e32fafba0b98375",
    "objectives":
        "956dce9df1030a5807530bcac2e74e56f8b59d35ad132aaf2b29ec56394edec1",
    "fig_triggers":
        "837e1ee176fbb5e310fdb4ace55a2a444a12bc2ffff27cd4f39be0aace4f6216",
    "fig_tenants":
        "7bff728f692a32f1a021db805c0cd6915028e722f88360fb7671d609b26fc650",
}


class TestStdoutDigests:
    @pytest.mark.parametrize("command", list(_PINNED_STDOUT_SHA256))
    def test_stdout_matches_pinned_digest(self, command, capsys):
        assert main(command.split()) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == _PINNED_STDOUT_SHA256[command]

    def test_every_experiment_is_pinned(self):
        assert set(SWEEPS) <= set(_PINNED_STDOUT_SHA256)


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
        # Every "### <id>" section matches --jobs 1 byte for byte; only the
        # closing summary and the per-worker cache metrics may differ.
        sections = {}
        for jobs in ("1", "2"):
            assert main(["run-all", "--jobs", jobs, "--only", "fig4,fig9"]) == 0
            out = capsys.readouterr().out
            assert f"jobs={jobs}" in out
            sections[jobs] = out[: out.index("\nran ")]
        assert "### fig4" in sections["2"] and "### fig9" in sections["2"]
        assert sections["2"] == sections["1"]

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
