"""Measurement loop, output checks, statistics and the run record.

Imported by ``run.py`` once ``src/`` is on the path and the numeric
libraries are pinned to one thread.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from spans import NULL_TRACER, UNIT, SpanRecorder
from workloads import VARIANTS, WORKLOADS

clock = time.perf_counter

#: Per-layer self-time metrics: span name -> metric name.  Unit spans
#: are per measured unit; ``workload.synth`` is per set-up.
LAYER_TIMES = {
    "amr.advance": "amr.advance_ms",
    "amr.ghost_fill": "amr.ghost_fill_ms",
    "amr.regrid": "amr.regrid_ms",
    "amr.average_down": "amr.average_down_ms",
    "amr.stable_dt": "amr.stable_dt_ms",
    "amr.step": "amr.step_self_ms",
    "analysis.entropy": "analysis.entropy_ms",
    "analysis.reconstruct": "analysis.reconstruct_ms",
    "analysis.isosurface": "analysis.isosurface_ms",
    "hpc.sim_run": "hpc.sim_run_self_ms",
    "core.snapshot": "core.snapshot_ms",
    "core.adapt": "core.adapt_ms",
    "staging.submit": "staging.submit_ms",
    "workflow.construct": "workflow.construct_ms",
    "workflow.finalize": "workflow.finalize_ms",
    "service.submit": "service.submit_ms",
}
SETUP_TIMES = {"workload.synth": "workload.synth_ms"}

#: Exact counts: name -> (unit, better).  A count a workload does not
#: produce reads 0 there.
COUNTS = {
    "amr.cells_advanced": ("count", "lower"),
    "amr.boxes": ("count", "lower"),
    "amr.halo_bytes": ("B", "lower"),
    "amr.regrids_changed": ("count", "lower"),
    "analysis.triangles": ("count", "higher"),
    **{
        f"hpc.events.{kind}": ("count", "lower")
        for kind in ("control", "timer", "compute", "transfer", "staging", "tenant")
    },
    "hpc.bytes_moved": ("B", "lower"),
    "staging.bytes_ingested": ("B", "lower"),
    "staging.jobs": ("count", "lower"),
    "core.snapshots": ("count", "lower"),
    "core.decisions": ("count", "lower"),
    "workflow.stall_s": ("sim_s", "lower"),
    "service.queue_wait_s": ("sim_s", "lower"),
    "staging.utilization": ("ratio", "higher"),
    "service.admissions": ("count", "higher"),
    "service.grant_expansions": ("count", "higher"),
    "service.starvations": ("count", "lower"),
}

#: Reported with the per-layer set: trace quality, and the cell rate of
#: the untraced episodes (unbounded: the seed changes a trace's cells).
TRACE_METRICS = {
    "trace.attributed_share": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "cell_updates_per_s": ("1/s", "higher"),
}

END_TO_END = {
    "setup_s": "s",
    "unit_ms.best": "ms",
    "sim_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {name: ("ms", "lower") for name in LAYER_TIMES.values()}
    out.update({name: ("ms", "lower") for name in SETUP_TIMES.values()})
    out.update(COUNTS)
    out.update(TRACE_METRICS)
    return out


# -- host diagnostics ------------------------------------------------------------

def host_speed() -> dict[str, float]:
    """Best-of-3 times of a fixed pure-Python and a fixed NumPy loop (ms).

    Recorded before and after each run as diagnostics, never as
    metrics: a slow host shows here before it shows in the program.
    """
    def python_loop():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    def numpy_loop():
        x = np.arange(100_000, dtype=np.float64)
        for _ in range(40):
            x = np.sqrt(x * x + 1.0)
        return x

    out = {}
    for name, fn in (("python_loop_ms", python_loop), ("numpy_loop_ms", numpy_loop)):
        best = float("inf")
        for _ in range(3):
            start = clock()
            fn()
            best = min(best, clock() - start)
        out[name] = best * 1000.0
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (names and bytes)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- measurement -------------------------------------------------------------------

class Tally:
    """Everything one run measures."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.unit_s: list[float] = []  # untraced timed units, in run order
        self.traced_unit_s: list[float] = []
        # Fastest time per sequence position, untraced [0] and traced [1].
        self.best: tuple[dict[int, float], dict[int, float]] = ({}, {})
        # Simulation steps and cells one unit advances, per position.
        self.work: dict[int, tuple[int, int]] = {}
        self.layer_s: dict[str, float] = defaultdict(float)
        self.setup_layer_s: dict[str, float] = defaultdict(float)
        self.traced_setups = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.nondeterministic = 0
        self.sequence_counts: dict[int, dict[str, float]] = {}


def _fail(tally: Tally, why: str) -> None:
    tally.failed += 1
    tally.mismatches.append(why)


def _check(workload, output, key: int, expected, tally: Tally):
    """Check one unit's output; count a failure.

    ``key`` is the unit's position in the unit sequence.  Its exact
    counts must equal those of every earlier unit at that position in
    this run (else the program is nondeterministic) and, with its
    digest, the reference's.  Returns the unit's
    :class:`~workloads.Outcome`, or None when its output could not be
    checked at all.
    """
    tally.attempted += 1
    try:
        outcome = workload.check(output)
    except Exception as exc:  # a broken output fails its unit
        _fail(tally, f"unit {key}: check raised {type(exc).__name__}: {exc}")
        return None
    first = tally.sequence_counts.setdefault(key, outcome.counts)
    if outcome.counts != first:
        tally.nondeterministic += 1
        _fail(tally, f"unit {key}: counts differ from an earlier unit {key} of this run")
    elif expected is None:
        _fail(tally, f"unit {key}: no reference for this input")
    elif outcome.counts != (ref := expected[key % len(expected)])["counts"]:
        diff = sorted(k for k in ref["counts"] if outcome.counts.get(k) != ref["counts"][k])
        _fail(tally, f"unit {key}: counts differ from the reference ({', '.join(diff)})")
    elif outcome.digest != ref["digest"]:
        _fail(tally, f"unit {key}: output digest differs from the reference")
    return outcome


def measure(workload, seconds: float, trace: bool, expected) -> tuple[Tally, SpanRecorder | None]:
    """Run whole episodes until ``seconds`` of them have elapsed.

    An episode is a timed set-up (inputs plus one warm-up unit) and
    ``workload.units`` timed units.  With ``trace``, odd episodes are
    traced and even ones not, so the two interleave in time and their
    ratio measures tracing overhead.
    """
    tally = Tally()
    recorder = SpanRecorder() if trace else None
    started = clock()
    episode = 0
    unit_id = 0
    min_episodes = 2 if trace else 1
    while episode < min_episodes or clock() - started < seconds:
        traced = trace and episode % 2 == 1
        tracer = recorder if traced else NULL_TRACER
        gc.collect()
        try:
            t0 = clock()
            workload.setup(tracer)
            warm = workload.unit(tracer)
            tally.setup_s.append(clock() - t0)
        except Exception as exc:  # a failing set-up ends the run
            tally.attempted += 1
            _fail(tally, f"set-up raised {type(exc).__name__}: {exc}")
            break
        if traced:
            for name, secs in recorder.self_times().items():
                tally.setup_layer_s[name] += secs
            tally.traced_setups += 1
        _check(workload, warm, 0 if workload.fixed_sequence else 1, expected, tally)
        del warm
        gc.collect()
        for position in range(1, workload.units + 1):
            unit_id += 1
            if traced:
                recorder.unit = unit_id
                root = recorder.open(UNIT)
            try:
                t0 = clock()
                output = workload.unit(tracer)
                elapsed = clock() - t0
            except Exception as exc:  # a failing unit is counted, not fatal
                tally.attempted += 1
                _fail(tally, f"unit {position} raised {type(exc).__name__}: {exc}")
                if traced:
                    recorder.discard()
                if workload.fixed_sequence:
                    break
                continue
            if traced:
                recorder.close(root)
                for name, secs in recorder.self_times().items():
                    tally.layer_s[name] += secs
                tally.traced_unit_s.append(elapsed)
            else:
                tally.unit_s.append(elapsed)
            key = position if workload.fixed_sequence else 1
            best = tally.best[traced]
            best[key] = min(best.get(key, elapsed), elapsed)
            outcome = _check(workload, output, key, expected, tally)
            if outcome is not None:
                tally.work.setdefault(key, (outcome.sim_steps, outcome.cell_updates))
        episode += 1
    return tally, recorder


def _sequence_counts(workload, tally: Tally) -> dict[str, float]:
    """Exact counts of one unit sequence: the episode's timed units for a
    fixed-sequence workload, one unit otherwise."""
    positions = range(1, workload.units + 1) if workload.fixed_sequence else (1,)
    total: dict[str, float] = defaultdict(int)
    for position in positions:
        for name, value in tally.sequence_counts.get(position, {}).items():
            total[name] += value
    return total


def end_to_end(tally: Tally) -> dict[str, float]:
    """The bounded metrics.  Unit times are best cases: per position of
    the unit sequence, the fastest of the run's samples, since a busy
    host only ever adds time (see README.md, "Noise discipline")."""
    best = tally.best[0]
    return {
        "setup_s": statistics.median(tally.setup_s),
        "unit_ms.best": statistics.median(best.values()) * 1000.0,
        "sim_steps_per_s": _best_rate(tally, 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _best_rate(tally: Tally, index: int) -> float:
    """Work of one unit sequence (``Outcome.sim_steps`` for index 0,
    ``cell_updates`` for 1) over its best untraced time."""
    best = tally.best[0]
    return sum(tally.work[k][index] for k in best) / sum(best.values())


def typical(tally: Tally) -> dict[str, float | None]:
    """Unbounded figures for the run record: what a user waits per unit
    on this host, busy periods included."""
    samples = tally.unit_s
    out = {"unit_ms.p50": statistics.median(samples) * 1000.0, "unit_ms.p90": None}
    if len(samples) >= 100:  # at least ten samples beyond p90
        out["unit_ms.p90"] = statistics.quantiles(samples, n=10)[-1] * 1000.0
    per_unit_steps = statistics.fmean(steps for steps, _ in tally.work.values())
    out["sim_steps_per_s.mean"] = per_unit_steps * len(samples) / sum(samples)
    return out


def per_layer(workload, tally: Tally) -> dict[str, float]:
    units = len(tally.traced_unit_s)
    traced_total = sum(tally.traced_unit_s)
    out = {
        metric: tally.layer_s.get(span, 0.0) * 1000.0 / units
        for span, metric in LAYER_TIMES.items()
    }
    for span, metric in SETUP_TIMES.items():
        out[metric] = tally.setup_layer_s.get(span, 0.0) * 1000.0 / tally.traced_setups
    counts = _sequence_counts(workload, tally)
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    out["trace.attributed_share"] = 1.0 - tally.layer_s.get(UNIT, 0.0) / traced_total
    untraced, traced = tally.best
    shared = untraced.keys() & traced.keys()
    out["trace.overhead"] = (
        sum(traced[k] for k in shared) / sum(untraced[k] for k in shared)
    )
    out["cell_updates_per_s"] = _best_rate(tally, 1)
    return out


def load_reference(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def run(args, reference_path: Path, out_dir: Path, root: Path) -> int:
    workload = WORKLOADS[args.workload](args.size, args.seed)
    expected = (
        load_reference(reference_path)
        .get(args.size, {}).get(workload.name, {}).get(str(workload.variant))
    )
    before = host_speed()
    tally, recorder = measure(workload, args.seconds, bool(args.trace), expected)
    after = host_speed()

    untraced, traced = tally.best
    complete = bool(untraced) and untraced.keys() <= tally.work.keys() and (
        not args.trace or bool(untraced.keys() & traced.keys())
    )
    correct = complete and tally.failed == 0
    if args.trace:
        units = per_layer_metrics()
        values = per_layer(workload, tally) if complete else {}
    else:
        units = END_TO_END
        values = end_to_end(tally) if complete else {}
    metrics = {
        name: {"value": values[name], "unit": unit if isinstance(unit, str) else unit[0]}
        for name, unit in units.items() if name in values
    }

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "variant": workload.variant,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop": "one client, single thread, next unit after the last",
        "units_timed": len(tally.unit_s),
        "units_traced": len(tally.traced_unit_s),
        "episodes": len(tally.setup_s),
        "typical": typical(tally) if complete else None,
        "error_rate": tally.failed / max(1, tally.attempted),
        "nondeterministic_units": tally.nondeterministic,
        "mismatches": tally.mismatches[:20],
        "host_speed": {"before": before, "after": after},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(root),
        "source_digest": _source_digest(root / "src"),
        "cache_mode": "cold: REPRO_NO_CACHE=1, experiment cache never consulted",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    if recorder is not None:
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{workload.name}-{args.size}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"record": record, "spans": recorder.dump()}))
        record["spans_file"] = str(spans_file.relative_to(root))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


# -- reference digests ---------------------------------------------------------------

def reference_entries(workload) -> list[dict]:
    """Digest and counts per unit position of one untraced episode.

    A workload without a fixed sequence must repeat one unit exactly;
    it stores that unit once.
    """
    workload.setup(NULL_TRACER)
    length = workload.units + 1 if workload.fixed_sequence else 2
    outcomes = [workload.check(workload.unit(NULL_TRACER)) for _ in range(length)]
    entries = [{"digest": o.digest, "counts": o.counts} for o in outcomes]
    if workload.fixed_sequence:
        return entries
    if any(entry != entries[0] for entry in entries):
        raise RuntimeError(f"{workload.name}: units of one episode differ")
    return entries[:1]


def write_reference(path: Path) -> None:
    table: dict = {}
    for size in ("full", "tiny"):
        for name, cls in WORKLOADS.items():
            variants = {}
            for seed in range(VARIANTS):
                workload = cls(size, seed)
                if str(workload.variant) not in variants:
                    variants[str(workload.variant)] = reference_entries(workload)
            table.setdefault(size, {})[name] = variants
            print(f"{size} {name}: {len(variants)} variant(s)", file=sys.stderr)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
