"""Import hygiene: the package's runtime needs numpy and nothing heavier."""

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
