"""Import hygiene: the package's runtime needs numpy and nothing heavier."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_entry_packages_load_no_graph_or_scipy_modules():
    # A fresh interpreter: this test process may have loaded anything.
    code = (
        "import sys\n"
        "import repro.workflow, repro.experiments, repro.service\n"
        "print(sorted(m for m in ('networkx', 'scipy') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def _loaded_after(statement: str, prefixes: tuple[str, ...]) -> list[str]:
    """``repro`` modules matching ``prefixes`` loaded by ``statement`` in a
    fresh interpreter."""
    code = (
        "import json, sys\n"
        f"{statement}\n"
        f"print(json.dumps(sorted(m for m in sys.modules\n"
        f"                        if m.startswith({prefixes!r}))))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_staging_and_amr_do_not_import_each_other():
    # The staging area models bytes, cores and memory; it needs neither
    # the AMR grids nor the analysis kernels, and the solvers stage nothing.
    assert _loaded_after("import repro.staging",
                         ("repro.amr", "repro.analysis")) == []
    assert _loaded_after("import repro.amr", ("repro.staging",)) == []
