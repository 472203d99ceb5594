"""Tests for result serialization."""

import json

import pytest

from repro.core.actions import Placement
from repro.hpc.systems import titan
from repro.workflow.config import Mode, WorkflowConfig
from repro.workflow.driver import run_workflow
from repro.workflow.metrics import StepMetrics, WorkflowResult
from repro.workflow.report import result_to_json
from repro.workload.synthetic import SyntheticAMRConfig, synthetic_amr_trace


@pytest.fixture(scope="module")
def results():
    trace = synthetic_amr_trace(
        SyntheticAMRConfig(steps=10, nranks=64, base_cells=2e7,
                           sim_cost_per_cell=1.0, growth=1.5, seed=0)
    )
    out = {}
    for mode in (Mode.STATIC_INSITU, Mode.ADAPTIVE_MIDDLEWARE):
        config = WorkflowConfig(mode=mode, sim_cores=1024, staging_cores=64,
                                spec=titan(), analysis_cost_per_cell=0.035)
        out[mode] = run_workflow(config, trace)
    return out


def _rebuild(text: str) -> WorkflowResult:
    """The result a payload describes.  Its keys are the dataclass
    fields, so equality with the original means nothing was lost."""
    payload = json.loads(text)
    steps = [StepMetrics(**{**s, "placement": Placement(s["placement"])})
             for s in payload.pop("steps")]
    return WorkflowResult(**payload, steps=steps)


class TestJsonRoundtrip:
    def test_roundtrip_preserves_everything(self, results):
        original = results[Mode.ADAPTIVE_MIDDLEWARE]
        restored = _rebuild(result_to_json(original))
        assert restored.mode == original.mode
        assert restored.end_to_end_seconds == original.end_to_end_seconds
        assert restored.energy_joules == original.energy_joules
        assert len(restored.steps) == len(original.steps)
        for a, b in zip(original.steps, restored.steps):
            assert a.placement == b.placement
            assert a.analysis_done_at == b.analysis_done_at
        restored.validate()

    def test_file_roundtrip(self, results, tmp_path):
        path = tmp_path / "run.json"
        text = result_to_json(results[Mode.STATIC_INSITU], path)
        assert path.read_text() == text
        assert _rebuild(path.read_text()).mode == "static_insitu"

    def test_full_equality_roundtrip(self, results):
        # Regression: dataclass equality must survive the round trip
        # exactly, enums and None fields included.
        for result in results.values():
            assert _rebuild(result_to_json(result)) == result

    def test_none_analysis_done_at_and_enum_roundtrip(self):
        step = StepMetrics(
            step=1, sim_seconds=1.0, factor=2,
            placement=Placement.POST_PROCESS, staging_cores=4,
            data_bytes_full=100.0, data_bytes_out=50.0,
            insitu_seconds=0.0, block_seconds=0.25,
            analysis_done_at=None,
        )
        original = WorkflowResult(mode="post_processing", steps=[step],
                                  end_to_end_seconds=2.0,
                                  total_sim_seconds=1.0)
        text = result_to_json(original)
        payload = json.loads(text)
        assert payload["steps"][0]["analysis_done_at"] is None
        assert payload["steps"][0]["placement"] == "post_process"
        assert _rebuild(text) == original
