"""Smoke tests for the ``repro audit`` CLI subcommand."""

import hashlib
import json

from repro.__main__ import SUBCOMMANDS, main
from repro.observability import RECORD_SCHEMA, load_record

#: SHA-256 of ``audit --diff`` stdout for ``audit --steps 6`` against
#: ``audit --steps 6 --bias 1.5``, captured when the two runs were still
#: exported as ``repro.observability.snapshot/2`` files.
_PINNED_DIFF_SHA256 = (
    "da9c16ba8cb94e13720532033aadc500c3b844298b4eaf6ee7dede895686b501"
)


class TestAuditCommand:
    def test_prints_calibration_table_and_regret(self, capsys):
        assert main(["audit", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "Calibration" in out
        assert "MAPE%" in out
        assert "sim_step_time" in out
        assert "placement regret" in out
        assert "decisions scored" in out

    def test_bias_knob_shows_up_as_bias(self, capsys):
        assert main(["audit", "--steps", "6", "--bias", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "bias=1.5" in out
        row = next(line for line in out.splitlines()
                   if line.startswith("insitu_time"))
        # A 1.5x multiplicative estimator bias is exactly +50% signed error.
        assert "50.0" in row

    def test_record_writes_a_loadable_record(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(["audit", "--steps", "5", "--record", str(path)]) == 0
        record = load_record(path)
        assert record["schema"] == RECORD_SCHEMA
        assert record["calibration"]
        assert record["placements"]
        assert record["ledger"]["records"]

    def test_prometheus_export(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        assert main(["audit", "--steps", "5", "--prometheus", str(path)]) == 0
        text = path.read_text()
        assert "repro_ledger_predictions_total" in text
        assert "repro_placement_regret_seconds_total" in text

    def test_diff_of_two_exports_reports_drift(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["audit", "--steps", "6", "--record", str(a)]) == 0
        assert main(["audit", "--steps", "6", "--bias", "1.5",
                     "--record", str(b)]) == 0
        capsys.readouterr()
        assert main(["audit", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "drift:" in out
        assert "insitu_time" in out
        assert "regret:" in out
        assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_DIFF_SHA256

    def test_diff_of_identical_runs_is_quiet_about_placements(
        self, capsys, tmp_path
    ):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["audit", "--steps", "5", "--record", str(a)]) == 0
        assert main(["audit", "--steps", "5", "--record", str(b)]) == 0
        assert json.loads(a.read_text())["placements"] == \
            json.loads(b.read_text())["placements"]
        capsys.readouterr()
        assert main(["audit", "--diff", str(a), str(b)]) == 0
        assert "identical on shared steps" in capsys.readouterr().out

    def test_diff_of_bad_input_is_a_usage_error(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        assert main(["audit", "--steps", "4", "--record", str(good)]) == 0
        not_json = tmp_path / "notes.txt"
        not_json.write_text("not a record\n")
        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            "schema": "repro.observability.snapshot/2", "label": "old",
            "profile": {}, "metrics": {}, "calibration": {}, "regret": {},
            "placements": {}, "ledger": {},
        }))
        for bad in (tmp_path / "missing.json", not_json, old):
            capsys.readouterr()
            assert main(["audit", "--diff", str(good), str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.strip()
            assert "\n" not in err and str(bad.name) in err

    def test_audit_listed(self, capsys):
        assert "audit" in SUBCOMMANDS
        assert main(["list"]) == 0
        assert "audit" in capsys.readouterr().out
