"""The observer: the tracer, metrics and ledger hooks as one bundle,
and the wiring that puts a profiler's spans on a layer from outside.

Every layer that publishes runtime status takes one ``observer=``: an
:class:`Observer` holding a tracer, a metrics registry and a prediction
ledger.  A hook left ``None`` becomes its shared null object, which
accepts the same calls as the real one and does nothing, so call sites
never branch on whether a hook is present.  This module is the one place
that knows a hook can be absent; the public entry points keep their
per-hook keywords and build an :class:`Observer` at the edge.

Wall-clock spans are not a hook the layers hold: :func:`instrument`
wraps whole methods of a built object in profiler spans from outside,
and :func:`section` spans an inline block at the CLI edge.

``enabled`` is ``False`` on the null tracer and the null ledger, so call
sites skip building an event's fields or computing the estimates a
prediction would record.  The null registry hands every call one shared
no-op instrument and records no name, so instruments stay lazily
created by the real registry.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Mapping

if TYPE_CHECKING:
    from repro.observability.ledger import PredictionLedger
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracer import Tracer

__all__ = [
    "NULL_LEDGER",
    "NULL_METRICS",
    "NULL_OBSERVER",
    "NULL_TRACER",
    "Observer",
    "instrument",
    "section",
]


class _NullTracer:
    """A tracer that records nothing; ``enabled`` is always False."""

    __slots__ = ()
    enabled = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def emit(self, kind: str, step: int | None = None, **fields: Any) -> None:
        return None


class _NullInstrument:
    """Counter, gauge and timer at once; every update is dropped."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, seconds: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class _NullMetrics:
    """A registry that hands out one shared no-op instrument."""

    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def timer(self, name: str, alpha: float = 0.3) -> _NullInstrument:
        return _NULL_INSTRUMENT


class _NullLedger:
    """A ledger that records nothing; ``enabled`` is always False."""

    __slots__ = ()
    enabled = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def predict(self, quantity: str, step: int, predicted: float,
                mechanism: str = "") -> None:
        return None

    def resolve(self, quantity: str, step: int, realized: float) -> None:
        return None

    def has_pending(self, quantity: str, step: int) -> bool:
        return False

    def record_placement(
        self, step: int, chosen: str, est_insitu: float, est_intransit: float,
        insitu_true: float, backlog_true: float, service_true: float,
        dispatched_at: float,
    ) -> None:
        return None

    def resolve_placement(
        self, step: int, *, block_seconds: float | None = None,
        finished_at: float | None = None, realized_insitu: float | None = None,
    ) -> None:
        pass

    def finalize(self, sim_end: float) -> None:
        pass


NULL_TRACER = _NullTracer()
NULL_METRICS = _NullMetrics()
NULL_LEDGER = _NullLedger()

_NULLS = {
    "tracer": NULL_TRACER,
    "metrics": NULL_METRICS,
    "ledger": NULL_LEDGER,
}


@dataclass(frozen=True)
class Observer:
    """The tracer, metrics registry and ledger of one run."""

    tracer: Tracer | _NullTracer | None = None
    metrics: MetricsRegistry | _NullMetrics | None = None
    ledger: PredictionLedger | _NullLedger | None = None

    def __post_init__(self) -> None:
        for name, null in _NULLS.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, null)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Time-stamp trace events and ledger records with ``clock``."""
        self.tracer.bind_clock(clock)
        self.ledger.bind_clock(clock)


#: The observer of an unobserved run: every hook is its null object.
NULL_OBSERVER = Observer()


def instrument(profiler: Any, obj: Any, spans: Mapping[str, str]) -> None:
    """Run every call of ``obj.<attr>`` inside a ``profiler`` span.

    ``spans`` maps attribute names to span names.  Each method is
    replaced on the instance by a wrapper around one span handle, bound
    here once (``del obj.<attr>`` undoes it): a callable handle, the
    :class:`~repro.observability.Profiler`'s, wraps the method itself,
    and any other is entered as a context manager.  With
    ``profiler=None`` nothing is wrapped.  A wrapped method must not
    yield to the simulator mid-call, and its callers must look it up
    on the instance at call time.
    """
    if profiler is None:
        return
    for attr, name in spans.items():
        span = profiler.span(name)
        method = getattr(obj, attr)
        setattr(obj, attr,
                span(method) if callable(span) else _spanned(method, span))


def _spanned(method: Callable, span: Any) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with span:
            return method(*args, **kwargs)
    return wrapper


def section(profiler: Any, name: str) -> ContextManager:
    """A ``profiler.span(name)`` around an inline block, or a no-op
    context when ``profiler`` is ``None``."""
    return nullcontext() if profiler is None else profiler.span(name)
