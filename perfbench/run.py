"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload amr-cold --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (it imports ``src/repro``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
run record (versions, host, host-speed diagnostics, p90 where it has
enough samples).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from traced episodes.  See
``perfbench/README.md`` for the workloads, metrics and noise rules.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Single-threaded numerics and no experiment cache, set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_NO_CACHE"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="amr-cold")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the benchmark's tests")
    parser.add_argument("--update-reference", action="store_true",
                        help="recompute reference.json from this checkout and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # needs src/ on the path

    reference = HERE / "reference.json"
    if args.update_reference:
        harness.write_reference(reference)
        return 0
    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    return harness.run(args, reference, ROOT / ".perfbench", ROOT)


if __name__ == "__main__":
    sys.exit(main())
