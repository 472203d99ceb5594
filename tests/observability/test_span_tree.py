"""The profiled span tree, pinned as ``{path: count}``.

Spans reach the layers only through ``instrument`` (the workflow, the
service and the sweep runner wire them from outside), so these trees
are the oracle for that wiring: every case below was captured before
the layers stopped opening their own spans, and any wrapped method that
is missed, doubled or nested differently moves a count.  Each case also
checks that profiling changes no simulated result and no kernel count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import _quickstart, main
from repro.experiments.fig_tenants import SEED, _tenant_config, _workload
from repro.observability import Profiler
from repro.service import WorkflowService
from repro.workflow import CoupledWorkflow
from repro.workflow.triggers import build_trigger

SRC = Path(__file__).resolve().parents[2] / "src"

_RUN = "workflow.run"
_SIM = f"{_RUN}/sim.run"
_DECIDE = f"{_SIM}/workflow.decide"


def _counts(dump):
    return {path: stat["count"] for path, stat in dump.items()}


def test_profile_cli_tree(tmp_path, capsys):
    path = tmp_path / "run.json"
    assert main(["profile", "--steps", "20", "--record", str(path)]) == 0
    capsys.readouterr()
    assert _counts(json.loads(path.read_text())["spans"]) == {
        "workload.build": 1,
        "workflow.setup": 1,
        _RUN: 1,
        _SIM: 1,
        _DECIDE: 20,
        f"{_DECIDE}/engine.adapt": 20,
        f"{_DECIDE}/monitor.snapshot": 20,
        f"{_SIM}/staging.submit": 11,
        f"{_SIM}/staging.drain": 11,
    }


def _workflow(mode, profiler=None, **kwargs):
    config, trace = _quickstart(mode, 20, 42)
    workflow = CoupledWorkflow(config, trace, profiler=profiler, **kwargs)
    return workflow.run(), workflow.sim.kernel.counters.as_dict()


def _entropy(profiler=None):
    return _workflow("global", profiler,
                     trigger=build_trigger("entropy-percentile"))


def _static(profiler=None):
    return _workflow("static_intransit", profiler)


def _global(profiler=None):
    return _workflow("global", profiler)


def _service(profiler=None):
    service = WorkflowService(sim_cores=1024, staging_cores=64,
                              profiler=profiler)
    tenants = [
        service.submit(f"tenant-{i}", _tenant_config(i),
                       _workload(SEED + i, 6), arrival=i)
        for i in range(2)
    ]
    service.run()
    results = [tenant.result for tenant in tenants]
    return results, service.sim.kernel.counters.as_dict()


_TREES = {
    "global": (_global, {
        _RUN: 1, _SIM: 1, _DECIDE: 20,
        f"{_DECIDE}/engine.adapt": 20,
        f"{_DECIDE}/monitor.snapshot": 20,
        f"{_SIM}/staging.submit": 11,
        f"{_SIM}/staging.drain": 11,
    }),
    "entropy-percentile": (_entropy, {
        _RUN: 1, _SIM: 1, _DECIDE: 20,
        f"{_DECIDE}/monitor.trigger": 20,
        f"{_DECIDE}/engine.adapt": 8,
        f"{_DECIDE}/monitor.snapshot": 8,
        f"{_SIM}/staging.submit": 11,
        f"{_SIM}/staging.drain": 11,
    }),
    "static_intransit": (_static, {
        _RUN: 1, _SIM: 1, _DECIDE: 20,
        f"{_SIM}/staging.submit": 20,
        f"{_SIM}/staging.drain": 20,
    }),
    "service": (_service, {
        "sim.run": 1,
        "sim.run/workflow.decide": 12,
        "sim.run/workflow.decide/engine.adapt": 12,
        "sim.run/workflow.decide/monitor.snapshot": 12,
        "sim.run/staging.submit": 10,
        "sim.run/staging.drain": 10,
    }),
}


@pytest.mark.parametrize("case", list(_TREES))
def test_profiled_tree_and_equivalence(case):
    run, tree = _TREES[case]
    profiler = Profiler()
    profiled, profiled_counters = run(profiler)
    assert _counts(profiler.dump()) == tree
    plain, plain_counters = run()
    assert profiled == plain
    assert profiled_counters == plain_counters


def test_shared_simulator_is_wired_once():
    # Tenants ride the service's simulator: wiring it per tenant would
    # nest sim.run spans inside each other on the next drain.
    profiler = Profiler()
    service = WorkflowService(sim_cores=1024, staging_cores=64,
                              profiler=profiler)
    for i in range(2):
        service.submit(f"tenant-{i}", _tenant_config(i),
                       _workload(SEED + i, 6), arrival=i)
    service.run()
    service.sim.run()
    counts = _counts(profiler.dump())
    assert counts["sim.run"] == 2
    assert not any(path.startswith("sim.run/sim.run") for path in counts)


_SWEEP = """
import json
from repro.experiments.parallel import run_all
from repro.observability import Profiler

grids = {"fig6": [{"n": 16, "nsteps": 4}],
         "fig9": [{"role": "static", "steps": 8},
                  {"role": "adaptive", "steps": 8}],
         "fig1": [{"nsteps": 4}]}
profiler = Profiler()
outcomes = run_all(["fig9", "fig6", "fig1"], jobs=JOBS, profiler=profiler,
                   grids=grids)
counts = {path: stat["count"] for path, stat in profiler.dump().items()}
print(json.dumps({"counts": counts, "texts": [o.text for o in outcomes]}))
"""


def _sweep(jobs, no_cache):
    # A fresh process per case: forked workers would inherit this
    # process's warm experiment cache and skip their computes.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_NO_CACHE", None)
    if no_cache:
        env["REPRO_NO_CACHE"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", _SWEEP.replace("JOBS", str(jobs))],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_sweep_trees():
    cached = {
        "sweep.point": 4,
        "sweep.point/cache.lookup": 2,
        "sweep.point/cache.lookup/cache.compute": 2,
    }
    serial = _sweep(1, no_cache=False)
    assert serial["counts"] == cached
    parallel = _sweep(2, no_cache=False)
    assert parallel["counts"] == cached
    for jobs in (1, 2):
        uncached = _sweep(jobs, no_cache=True)
        assert uncached["counts"] == {
            "sweep.point": 4,
            "sweep.point/cache.compute": 2,
        }
        assert uncached["texts"] == serial["texts"]
    assert parallel["texts"] == serial["texts"]
