"""The observer: the tracer and ledger hooks as one bundle, plus the
wiring that puts spans and metrics on a layer from outside.

Every layer that publishes runtime status takes one ``observer=``: an
:class:`Observer` holding a tracer and a prediction ledger.  A hook
left ``None`` becomes its shared null object, which accepts the same
calls as the real one and does nothing, so call sites never branch on
whether a hook is present.  This module is the one place that knows a
hook can be absent; the public entry points keep their per-hook
keywords and build an :class:`Observer` at the edge.

Metrics and spans are not hooks the layers hold: components count in
plain attributes that :func:`publish` copies into a metrics registry
when a run ends, :func:`instrument` wraps whole methods of a built
object in profiler spans, and :func:`section` spans an inline block at
the CLI edge.

``enabled`` is ``False`` on the null tracer and the null ledger, so call
sites skip building an event's fields or computing the estimates a
prediction would record.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Mapping

from repro.observability.metrics import EmaTimer, Gauge

if TYPE_CHECKING:
    from repro.observability.ledger import PredictionLedger
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracer import Tracer

__all__ = [
    "NULL_LEDGER",
    "NULL_OBSERVER",
    "NULL_TRACER",
    "Observer",
    "instrument",
    "publish",
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
NULL_LEDGER = _NullLedger()

_NULLS = {"tracer": NULL_TRACER, "ledger": NULL_LEDGER}


@dataclass(frozen=True)
class Observer:
    """The tracer and ledger of one run."""

    tracer: Tracer | _NullTracer | None = None
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


def publish(registry: MetricsRegistry | None,
            tallies: Callable[[], Mapping[str, Any]]) -> None:
    """Add a finished run's tallies to ``registry`` (a no-op without one).

    ``tallies()`` maps metric names to what the components counted: a
    number > 0 adds to a counter, a :class:`Gauge` sets a gauge, and an
    :class:`EmaTimer` with observations folds into a timer.
    """
    if registry is None:
        return
    for name, tally in tallies().items():
        if isinstance(tally, EmaTimer):
            if tally.count:
                registry.timer(name, tally.alpha).fold(
                    tally.value, tally.count, tally.total)
        elif isinstance(tally, Gauge):
            registry.gauge(name).set(tally.value)
        elif tally > 0:
            registry.counter(name).inc(tally)


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
