"""Hot-path budgets: per-span-path wall-clock ceilings for the profiler.

``benchmarks/budgets.json`` declares, for the canonical profile
workload (the quickstart replay ``python -m repro profile`` runs), a
ceiling in seconds on each guarded span path's *cumulative* wall time.
``benchmarks/bench_profile.py`` and ``python -m repro profile
--budgets`` collect a profile and assert every ceiling -- so a hot-path
regression fails CI with the offending span named, instead of surfacing
months later as benchmark folklore.  ROADMAP item 4's event-kernel
rewrite is measured against exactly these ceilings.

Manifest format (:data:`BUDGETS_SCHEMA`)::

    {
      "schema": "repro.budgets/1",
      "workload": {"mode": "global", "steps": 20, "seed": 42},
      "budgets": {"workflow.run": 2.0, "workflow.run/sim.run": 1.5, ...}
    }

Ceilings are deliberately generous (an order of magnitude over a warm
local run): they guard against *gross* regressions on arbitrary CI
hardware, while ``perfbench`` measures the fine-grained drift between
two code states.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ObservabilityError
from repro.observability.profiler import PROFILE_SPANS, Profiler, _as_dump

__all__ = [
    "BUDGETS_SCHEMA",
    "BudgetViolation",
    "check_budgets",
    "load_budgets",
    "render_budget_report",
]

#: Version tag of the budget manifest layout; bumped on breaking changes.
BUDGETS_SCHEMA = "repro.budgets/1"


class BudgetViolation:
    """One span path over its ceiling (or missing from the profile)."""

    __slots__ = ("path", "ceiling_seconds", "measured_seconds")

    def __init__(self, path: str, ceiling_seconds: float,
                 measured_seconds: float | None):
        self.path = path
        self.ceiling_seconds = ceiling_seconds
        #: ``None`` when the guarded span never ran (itself a failure:
        #: a silently-vanished span means the instrumentation rotted).
        self.measured_seconds = measured_seconds

    def describe(self) -> str:
        if self.measured_seconds is None:
            return (
                f"{self.path}: guarded span missing from the profile "
                f"(ceiling {self.ceiling_seconds:.3f}s)"
            )
        return (
            f"{self.path}: {self.measured_seconds:.4f}s exceeds ceiling "
            f"{self.ceiling_seconds:.3f}s"
        )


def load_budgets(source: str | Path | Mapping[str, Any]) -> dict[str, Any]:
    """Load and validate a budget manifest (dict, JSON text, or path).

    Every budgeted path's span names must be registered in
    :data:`PROFILE_SPANS` and every ceiling must be a positive number --
    a typo'd path would otherwise guard nothing, forever, silently.
    """
    if isinstance(source, Mapping):
        payload: Any = dict(source)
    else:
        if isinstance(source, Path) or (
            isinstance(source, str)
            and "\n" not in source
            and source.endswith(".json")
        ):
            text = Path(source).read_text()
        else:
            text = str(source)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"not a budget manifest: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != BUDGETS_SCHEMA:
        raise ObservabilityError(
            f"not a {BUDGETS_SCHEMA} manifest: schema="
            f"{payload.get('schema')!r}"
            if isinstance(payload, dict)
            else "not a budget manifest: top level is not an object"
        )
    budgets = payload.get("budgets")
    if not isinstance(budgets, dict) or not budgets:
        raise ObservabilityError("budget manifest has no 'budgets' mapping")
    for path, ceiling in budgets.items():
        unknown = [name for name in path.split("/")
                   if name not in PROFILE_SPANS]
        if unknown:
            raise ObservabilityError(
                f"budget path {path!r} uses unregistered span names "
                f"{unknown} (register them in PROFILE_SPANS first)"
            )
        if not isinstance(ceiling, (int, float)) or ceiling <= 0:
            raise ObservabilityError(
                f"budget ceiling for {path!r} must be a positive number, "
                f"got {ceiling!r}"
            )
    return payload


def check_budgets(
    profile: Profiler | Mapping[str, Mapping[str, Any]],
    budgets: str | Path | Mapping[str, Any],
) -> list[BudgetViolation]:
    """Every ceiling violated by ``profile`` (empty list = all within).

    A guarded span path that never ran is also a violation: the budget
    exists because the path is hot, so its disappearance means the
    instrumentation (or the workload) silently changed.
    """
    manifest = load_budgets(budgets)
    dump = _as_dump(profile)
    violations = []
    for path, ceiling in sorted(manifest["budgets"].items()):
        snap = dump.get(path)
        if snap is None:
            violations.append(BudgetViolation(path, float(ceiling), None))
        elif snap["cum_seconds"] > float(ceiling):
            violations.append(
                BudgetViolation(path, float(ceiling), snap["cum_seconds"])
            )
    return violations


def render_budget_report(
    profile: Profiler | Mapping[str, Mapping[str, Any]],
    budgets: str | Path | Mapping[str, Any],
) -> str:
    """One line per guarded path: measured vs ceiling, violations marked."""
    manifest = load_budgets(budgets)
    dump = _as_dump(profile)
    entries = sorted(manifest["budgets"].items())
    width = max(len(path) for path, _ in entries)
    lines = []
    violated = 0
    for path, ceiling in entries:
        snap = dump.get(path)
        if snap is None:
            violated += 1
            lines.append(f"{path.ljust(width)}  MISSING   "
                         f"(ceiling {float(ceiling):.3f}s)  FAIL")
            continue
        measured = snap["cum_seconds"]
        ok = measured <= float(ceiling)
        if not ok:
            violated += 1
        lines.append(
            f"{path.ljust(width)}  {measured:8.4f}s  "
            f"(ceiling {float(ceiling):.3f}s)  {'ok' if ok else 'FAIL'}"
        )
    lines.append("")
    lines.append(
        f"{len(entries) - violated}/{len(entries)} span budgets satisfied"
        + ("" if violated == 0 else f" ({violated} VIOLATED)")
    )
    return "\n".join(lines)
