"""Smoke tests for the ``repro profile`` CLI subcommand."""

import json

from repro.__main__ import SUBCOMMANDS, main
from repro.observability import load_record


class TestProfileCommand:
    def test_renders_tree_hot_list_and_coverage(self, capsys):
        assert main(["profile", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "Span tree" in out
        assert "Hot spans" in out
        assert "attributed to spans" in out
        # The instrumented stack shows up as an indented tree.
        assert "workflow.run" in out
        assert "sim.run" in out
        assert "engine.adapt" in out

    def test_attributes_at_least_90_percent_of_wall_time(self, capsys):
        assert main(["profile"]) == 0  # the canonical 20-step quickstart
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "attributed" in l)
        coverage = float(line.rsplit("(", 1)[1].rstrip("%)"))
        assert coverage >= 90.0

    def test_record_spans_are_a_span_mapping(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        assert main(["profile", "--steps", "5", "--record", str(path)]) == 0
        record = load_record(path)
        assert record["counters"]["processed"]["compute"] > 0
        dump = record["spans"]
        assert "workflow.run/sim.run" in dump
        for snap in dump.values():
            assert set(snap) == {"count", "cum_seconds", "self_seconds"}

    def test_budget_check_passes_on_shipped_manifest(self, capsys):
        assert main(["profile", "--budgets", "benchmarks/budgets.json"]) == 0
        out = capsys.readouterr().out
        assert "Budget check" in out
        assert "span budgets satisfied" in out

    def test_budget_violation_exits_nonzero(self, capsys, tmp_path):
        manifest = tmp_path / "tight.json"
        manifest.write_text(json.dumps({
            "schema": "repro.budgets/1",
            "workload": {"mode": "global", "steps": 5, "seed": 42},
            "budgets": {"workflow.run": 1e-9},
        }))
        assert main(["profile", "--steps", "5",
                     "--budgets", str(manifest)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_invalid_budget_manifest_is_a_usage_error(self, capsys, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text("{nope")
        assert main(["profile", "--steps", "5",
                     "--budgets", str(manifest)]) == 2
        assert "invalid budget manifest" in capsys.readouterr().err

    def test_profile_listed(self, capsys):
        assert "profile" in SUBCOMMANDS
        assert main(["list"]) == 0
        assert "profile" in capsys.readouterr().out
