"""The fault model: typed, validated, seedable perturbation plans.

A :class:`FaultPlan` is an immutable description of *what goes wrong and
when* during one simulated run: staging cores dying and returning, network
links browning out, analysis service straggling, staged objects being
corrupted in flight or at rest.  The plan is pure data -- applying it is
the :class:`~repro.faults.injector.FaultInjector`'s job -- so a plan can
be compared, serialized next to results, and replayed bit-identically.

Determinism contract:

- a plan built from explicit faults is trivially deterministic;
- the scenario builders in :mod:`repro.faults.scenarios` derive every
  random choice from a caller-supplied integer seed via
  ``numpy.random.default_rng``, so (scenario, seed, horizon) is a pure
  function to a plan;
- injection itself introduces no randomness: timed faults fire at their
  ``at`` timestamps on the simulated clock (ties broken by arming order,
  exactly the event kernel's insertion-order rule) and per-step faults
  are consumed in attempt order.

:data:`FAULT_KINDS` is the closed registry of fault types, mirrored by
the table in ``docs/faults.md`` (the docs-consistency suite keeps the
two in sync, like ``EVENT_KINDS``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import ClassVar, Iterable, Union

from repro.errors import FaultError

__all__ = [
    "FAULT_KINDS",
    "CoreLoss",
    "CoreRestore",
    "Fault",
    "FaultPlan",
    "LinkDegrade",
    "ObjectCorrupt",
    "ObjectDrop",
    "Straggler",
]

#: Every fault type the injector can apply, with a one-line meaning.
FAULT_KINDS: dict[str, str] = {
    "staging.core_loss": "kill staging cores at a simulated time (all dead "
    "= substrate unreachable)",
    "staging.core_restore": "return previously failed staging cores to the pool",
    "network.degrade": "scale a link's bandwidth/latency over a time window",
    "staging.straggler": "multiply staging service times over a time window",
    "staging.object_drop": "corrupt a step's staged object in flight; "
    "ingest retries with backoff",
    "staging.object_corrupt": "corrupt a step's staged object at rest; "
    "analysis re-runs from the staged copy",
}


@dataclass(frozen=True)
class CoreLoss:
    """Kill ``cores`` staging cores at simulated time ``at``."""

    kind: ClassVar[str] = "staging.core_loss"
    at: float
    cores: int

    def validate(self) -> None:
        if self.at < 0:
            raise FaultError(f"{self.kind}: time must be >= 0, got {self.at}")
        if self.cores < 1:
            raise FaultError(f"{self.kind}: cores must be >= 1, got {self.cores}")


@dataclass(frozen=True)
class CoreRestore:
    """Return ``cores`` previously failed staging cores at time ``at``."""

    kind: ClassVar[str] = "staging.core_restore"
    at: float
    cores: int

    def validate(self) -> None:
        if self.at < 0:
            raise FaultError(f"{self.kind}: time must be >= 0, got {self.at}")
        if self.cores < 1:
            raise FaultError(f"{self.kind}: cores must be >= 1, got {self.cores}")


@dataclass(frozen=True)
class LinkDegrade:
    """Scale one link's bandwidth/latency over ``[at, at + duration)``.

    ``bandwidth_factor`` multiplies capacity (0.1 = a 10x brownout);
    ``latency_factor`` multiplies propagation delay.  Overlapping windows
    on the same link compose multiplicatively and restore exactly.
    """

    kind: ClassVar[str] = "network.degrade"
    at: float
    duration: float
    src: str = "sim"
    dst: str = "staging"
    bandwidth_factor: float = 1.0
    latency_factor: float = 1.0

    def validate(self) -> None:
        if self.at < 0:
            raise FaultError(f"{self.kind}: time must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise FaultError(
                f"{self.kind}: duration must be positive, got {self.duration}"
            )
        if self.bandwidth_factor <= 0:
            raise FaultError(
                f"{self.kind}: bandwidth_factor must be positive, "
                f"got {self.bandwidth_factor}"
            )
        if self.latency_factor < 0:
            raise FaultError(
                f"{self.kind}: latency_factor must be >= 0, "
                f"got {self.latency_factor}"
            )


@dataclass(frozen=True)
class Straggler:
    """Multiply staging service times by ``factor`` over a window.

    The factor is sampled at service start: a job beginning inside
    ``[at, at + duration)`` runs ``factor`` times slower end to end.
    Overlapping windows compose multiplicatively.
    """

    kind: ClassVar[str] = "staging.straggler"
    at: float
    duration: float
    factor: float

    def validate(self) -> None:
        if self.at < 0:
            raise FaultError(f"{self.kind}: time must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise FaultError(
                f"{self.kind}: duration must be positive, got {self.duration}"
            )
        if self.factor < 1.0:
            raise FaultError(
                f"{self.kind}: factor must be >= 1, got {self.factor}"
            )


@dataclass(frozen=True)
class ObjectDrop:
    """Corrupt the first ``count`` ingest attempts for ``step`` in flight.

    Each dropped attempt costs its full transfer time (the corruption is
    detected on arrival) and is retried with the staging area's bounded
    exponential backoff (:data:`~repro.staging.area.RETRY_ATTEMPTS`
    transfers at most); exhausting it raises
    :class:`~repro.errors.StagingError`.
    """

    kind: ClassVar[str] = "staging.object_drop"
    step: int
    count: int = 1

    def validate(self) -> None:
        if self.step < 0:
            raise FaultError(f"{self.kind}: step must be >= 0, got {self.step}")
        if self.count < 1:
            raise FaultError(f"{self.kind}: count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class ObjectCorrupt:
    """Corrupt ``step``'s staged object at rest, ``repeats`` times.

    Detected when the analysis finishes; the job re-runs from the staged
    copy (analysis is idempotent), so each corruption costs one extra
    service pass.
    """

    kind: ClassVar[str] = "staging.object_corrupt"
    step: int
    repeats: int = 1

    def validate(self) -> None:
        if self.step < 0:
            raise FaultError(f"{self.kind}: step must be >= 0, got {self.step}")
        if self.repeats < 1:
            raise FaultError(
                f"{self.kind}: repeats must be >= 1, got {self.repeats}"
            )


Fault = Union[CoreLoss, CoreRestore, LinkDegrade, Straggler, ObjectDrop, ObjectCorrupt]

#: Fault types that fire at a scheduled simulated time (have an ``at``).
TIMED_KINDS = (CoreLoss, CoreRestore, LinkDegrade, Straggler)
#: Fault types consumed lazily when the staging area touches the step.
STEP_KINDS = (ObjectDrop, ObjectCorrupt)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated collection of faults for one run.

    Construct with explicit faults (``FaultPlan([CoreLoss(at=5.0,
    cores=32)])``) or via a scenario builder
    (:mod:`repro.faults.scenarios`).  Timed faults are kept sorted by
    ``(at, construction order)`` so arming is deterministic.
    """

    faults: tuple[Fault, ...] = ()

    def __init__(self, faults: Iterable[Fault] = ()):
        items = tuple(faults)
        for fault in items:
            if not isinstance(fault, TIMED_KINDS + STEP_KINDS):
                raise FaultError(f"not a fault: {fault!r}")
            fault.validate()
        # Stable sort: timed faults by firing time, step faults at the end
        # in construction order (they have no clock position).
        order = {id(f): i for i, f in enumerate(items)}
        items = tuple(
            sorted(
                items,
                key=lambda f: (getattr(f, "at", float("inf")), order[id(f)]),
            )
        )
        object.__setattr__(self, "faults", items)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    # -- views the injector consumes --------------------------------------

    def timed(self) -> tuple[Fault, ...]:
        """The faults that fire at a scheduled simulated time."""
        return tuple(f for f in self.faults if isinstance(f, TIMED_KINDS))

    def drops_by_step(self) -> dict[int, int]:
        """Total in-flight corruptions per step."""
        out: dict[int, int] = {}
        for fault in self.faults:
            if isinstance(fault, ObjectDrop):
                out[fault.step] = out.get(fault.step, 0) + fault.count
        return out

    def corrupts_by_step(self) -> dict[int, int]:
        """Total at-rest corruptions per step."""
        out: dict[int, int] = {}
        for fault in self.faults:
            if isinstance(fault, ObjectCorrupt):
                out[fault.step] = out.get(fault.step, 0) + fault.repeats
        return out

    def describe(self) -> str:
        """One line per fault, firing order, for reports and the CLI."""
        if not self.faults:
            return "(empty fault plan)"
        lines = []
        for fault in self.faults:
            detail = ", ".join(
                f"{spec.name}={getattr(fault, spec.name)}"
                for spec in dataclass_fields(fault)
            )
            lines.append(f"{fault.kind}({detail})")
        return "\n".join(lines)
