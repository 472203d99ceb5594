"""Repeat run.py over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workload paper-scales --runs 10 [--trace 0]

Each run is its own process, one after another.  For every metric the
summary gives the median over runs, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread (IQR as a share of
the median), beside the bound ``BENCHMARK.json`` fixes for it.  Exact
counts from traced runs must repeat across runs of one input variant;
a difference is flagged as nondeterminism.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, IQR / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = defaultdict(list)
    counts_by_variant: dict[int, dict] = {}
    nondeterministic: list[str] = []
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        wall = time.perf_counter() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failures += 1
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        if not result["correct"]:
            failures += 1
            print(f"seed {seed}: incorrect: {record['mismatches']}", file=sys.stderr)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for name, value in metrics.items():
            values[name].append(value)
        speed = record["host_speed"]
        print(
            f"seed {seed:3d} wall {wall:5.1f}s units {record['units_timed']:4d} "
            f"py {speed['before']['python_loop_ms']:.1f}->{speed['after']['python_loop_ms']:.1f}ms "
            + " ".join(f"{k}={v:.4g}" for k, v in metrics.items() if k in bounds),
            flush=True,
        )
        if args.trace:  # exact counts: every per-layer metric but times and rates
            counts = {k: v for k, v in metrics.items()
                      if result["metrics"][k]["unit"] not in ("ms", "1/s")
                      and not k.startswith("trace.")}
            seen = counts_by_variant.setdefault(record["variant"], counts)
            if seen != counts:
                nondeterministic.append(f"seed {seed} (variant {record['variant']})")

    print(f"\n{args.workload}: {args.runs} runs, {failures} failed or incorrect")
    print(f"{'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        median, q1, q3, rel = spread(vals)
        bound = bounds.get(name)
        flag = "" if bound is None else f"{bound:6.2f}" + ("  WIDE" if rel > bound / 3 else "")
        print(f"{name:28s} {median:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.2%} {flag}")
    if nondeterministic:
        print("NONDETERMINISTIC counts: " + ", ".join(nondeterministic))
    return 1 if failures or nondeterministic else 0


if __name__ == "__main__":
    sys.exit(main())
