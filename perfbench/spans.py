"""In-memory span recording for the benchmark's traced runs.

Spans are recorded from outside the program: :meth:`SpanRecorder.wrap`
replaces a public method on one object with a timing wrapper, and
:class:`ProfilerHook` stands in for :class:`repro.observability.Profiler`
where the program only accepts a ``profiler=`` hook (the multi-tenant
service builds its tenant workflows itself).

Each span is ``[name, start, end, parent, unit]``: ``parent`` is the
index of the enclosing span (-1 for none) and ``unit`` the id of the
measured unit it belongs to.  A layer's self time is its span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Root span every measured unit opens; its self time is what no layer
#: span covers (the benchmark's own loop, and calls nobody wrapped).
UNIT = "unit"

#: Units whose spans are kept for :meth:`SpanRecorder.dump`; the rest
#: are aggregated and dropped, so memory stays bounded.
KEEP_UNITS = 16


class _Null:
    """The untraced tracer: spans cost one call, wraps cost nothing."""

    __slots__ = ()

    def span(self, name):
        return self

    def wrap(self, obj, attr, name):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_TRACER = _Null()


class SpanRecorder:
    """Records nested spans in memory; aggregates self time per unit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.kept: list[list] = []  # spans of the first KEEP_UNITS units
        self._stack: list[int] = []
        self.unit = -1
        self._kept_units = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.unit])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def discard(self) -> None:
        """Drop the spans of a unit that raised."""
        self.spans = []
        self._stack = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` as a ``name`` span."""
        original = getattr(obj, attr)
        recorder = self

        def timed(*args, **kwargs):
            index = recorder.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(index)

        setattr(obj, attr, timed)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name over the spans recorded since the
        last call, which it then clears (the first :data:`KEEP_UNITS`
        calls' spans are kept for :meth:`dump`)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(spans, child):
            out[name] += (end - start) - inner
        if self._kept_units < KEEP_UNITS and spans:
            offset = len(self.kept)
            self.kept.extend(
                [n, s, e, p + offset if p >= 0 else -1, u]
                for n, s, e, p, u in spans
            )
            self._kept_units += 1
        self.spans = []
        return dict(out)

    def dump(self) -> list[dict]:
        """The kept spans as JSON-ready records."""
        return [
            {"name": n, "start": s, "end": e, "parent": p, "unit": u}
            for n, s, e, p, u in self.kept
        ]


class _Span:
    """Context-manager form of one span (reusable, like the profiler's)."""

    __slots__ = ("_recorder", "_name", "_open")

    def __init__(self, recorder: SpanRecorder, name: str):
        self._recorder = recorder
        self._name = name
        self._open: list[int] = []

    def __enter__(self):
        self._open.append(self._recorder.open(self._name))
        return self

    def __exit__(self, *exc) -> bool:
        self._recorder.close(self._open.pop())
        return False


class ProfilerHook:
    """Duck-typed ``profiler=`` hook that records into a SpanRecorder.

    ``names`` maps the program's span names to the benchmark's layer
    names; spans not in it are not recorded, so their time stays with
    the enclosing span.
    """

    def __init__(self, recorder: SpanRecorder, names: dict[str, str]):
        self._recorder = recorder
        self._names = names

    def span(self, name: str):
        layer = self._names.get(name)
        if layer is None:
            return NULL_TRACER
        return self._recorder.span(layer)
