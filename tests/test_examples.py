"""Smoke tests: the shipped examples must run end to end.

Each example is executed in-process (``runpy``) so regressions in the
public API surface break the suite, not just the README.  Every shipped
example runs here, and each test asserts the example's headline line;
``test_every_example_has_a_smoke_test`` keeps it that way.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "adaptive_middleware" in out
        assert "static_insitu" in out

    def test_trigger_policies(self, capsys):
        out = run_example("trigger_policies.py", capsys)
        assert "entropy-percentile" in out
        assert "82 probes" in out
        assert "sampling cost halved at equal quality: YES" in out

    def test_profiling(self, capsys):
        out = run_example("profiling.py", capsys)
        assert "attributed to spans" in out
        assert "workflow.run" in out
        assert "merged one worker profile" in out
        assert "every span registered: YES" in out

    def test_kernel_scaling(self, capsys):
        out = run_example("kernel_scaling.py", capsys)
        assert "Kernel weak-scaling sweep" in out
        assert "65,536" in out
        assert "events/s" in out
        assert "events/sec attribution intact at every scale: YES" in out

    def test_coupled_visualization(self, capsys):
        out = run_example("coupled_visualization.py", capsys)
        assert "rho max" in out
        assert ("shock surface grows and total density is conserved "
                "over 12 steps: YES") in out

    def test_crosslayer_objectives(self, capsys):
        out = run_example("crosslayer_objectives.py", capsys)
        assert "middleware layer: placements" in out

    def test_entropy_downsampling(self, capsys):
        out = run_example("entropy_downsampling.py", capsys)
        assert "entropy-guided reduction keeps" in out

    def test_fault_scenarios(self, capsys):
        out = run_example("fault_scenarios.py", capsys)
        assert "inject staging.core_restore" in out

    def test_resource_autoscaling(self, capsys):
        out = run_example("resource_autoscaling.py", capsys)
        assert "utilization efficiency" in out

    def test_every_example_has_a_smoke_test(self):
        tested = {name[len("test_"):] for name in dir(self)
                  if name.startswith("test_")}
        missing = [script.stem for script in sorted(EXAMPLES.glob("*.py"))
                   if script.stem not in tested]
        assert not missing, f"examples without a smoke test: {missing}"

    def test_all_examples_exist_and_have_docstrings(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 7
        for script in scripts:
            text = script.read_text()
            assert text.startswith("#!/usr/bin/env python"), script.name
            assert '"""' in text.split("\n", 2)[1], script.name
