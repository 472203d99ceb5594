"""Tests of the benchmark itself, at ``--size tiny`` (seconds in total).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

os.environ["REPRO_NO_CACHE"] = "1"  # as run.py sets it: no cache reads or writes
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from spans import UNIT, ProfilerHook, SpanRecorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.3",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["mismatches"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["variant"] == (0 if workload == "amr-cold" else 5)


def test_benchmark_json_lists_the_harness_metrics():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == (
        harness.per_layer_metrics()
    )


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    root = recorder.open(UNIT)  # 0 .. 10
    outer = recorder.open("a")  # 1 .. 6
    inner = recorder.open("b")  # 2 .. 5
    recorder.close(inner)
    recorder.close(outer)
    recorder.close(root)
    assert recorder.self_times() == {UNIT: 5.0, "a": 2.0, "b": 3.0}
    assert [s["parent"] for s in recorder.dump()] == [-1, 0, 1]
    assert recorder.spans == []


def test_wrap_times_calls_and_hook_maps_names():
    recorder = SpanRecorder()

    class Thing:
        def work(self, x):
            return x + 1

    thing = Thing()
    recorder.wrap(thing, "work", "layer.work")
    hook = ProfilerHook(recorder, {"sim.run": "hpc.sim_run"})
    with hook.span("sim.run"):
        assert thing.work(1) == 2
    with hook.span("workflow.decide"):  # unmapped: transparent
        pass
    names = [s[0] for s in recorder.spans]
    assert names == ["hpc.sim_run", "layer.work"]
    assert recorder.spans[1][3] == 0  # nested under the hook's span


def test_wrong_reference_fails_every_unit():
    workload = harness.WORKLOADS["paper-scales"]("tiny", 0)
    reference = harness.load_reference(HERE / "reference.json")
    expected = json.loads(json.dumps(reference["tiny"]["paper-scales"]["0"]))
    expected[0]["digest"] = "0" * 64
    tally, _ = harness.measure(workload, 0.0, False, expected)
    assert tally.attempted == workload.units + 1
    assert tally.failed == tally.attempted
    expected[0]["counts"]["hpc.events.compute"] += 1
    tally, _ = harness.measure(workload, 0.0, False, expected)
    assert all("reference (hpc.events.compute)" in m for m in tally.mismatches)


def test_counts_that_change_within_a_run_are_flagged():
    from workloads import Outcome

    class Echo:  # a unit's output is its count
        def check(self, output):
            return Outcome("d", {"c": output}, sim_steps=1, cell_updates=1)

    tally = harness.Tally()
    expected = [{"digest": "d", "counts": {"c": 1}}]
    harness._check(Echo(), 1, 1, expected, tally)
    harness._check(Echo(), 2, 1, expected, tally)
    assert (tally.attempted, tally.failed, tally.nondeterministic) == (2, 1, 1)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "amr-cold", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
