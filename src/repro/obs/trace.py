"""Per-phase tracing: nested spans in a bounded thread-safe ring buffer.

A :class:`Tracer` is engine-scoped (one per :class:`~repro.core.odyssey.
SpaceOdyssey` when enabled).  Spans nest implicitly through a per-thread
stack — ``start_span`` inside an open span becomes its child — and
explicitly across threads: pool workers pass ``parent=`` because a fresh
executor thread has an empty stack.  An already-measured span (an
instantaneous :meth:`Tracer.event`, for one) is grafted with
:meth:`Tracer.record_completed`.

Completed spans land in a ``deque(maxlen=capacity)`` ring buffer under a
lock; when full, the oldest span is evicted and counted.  Open spans are
not in the buffer — a span becomes visible at ``end_span``.

The disabled fast path is the module-level :func:`maybe_span` helper:
one ``is None`` branch, returning a shared no-op context manager, so an
engine without a tracer pays nothing measurable per instrumentation
site.  Tracing is observation only — no engine decision may read a span.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass(slots=True)
class Span:
    """One traced operation: identity, parentage, timing and attributes.

    ``start_wall`` is ``time.time()`` (for correlating with external
    logs); ``start_perf`` is ``time.perf_counter()`` (for durations).
    ``duration_s`` is filled at ``end_span`` (grafted spans arrive with
    it already measured).
    """

    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    start_wall: float
    start_perf: float
    duration_s: float = 0.0
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """A JSON-ready representation (used by the trace exporters)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_wall": self.start_wall,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """Produces nested spans into a bounded thread-safe ring buffer."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._evicted = 0
        self._next_span_id = itertools.count(1)
        self._next_trace_id = itertools.count(1)
        self._local = threading.local()

    # -- introspection ----------------------------------------------------- #

    @property
    def capacity(self) -> int:
        """Ring-buffer capacity in spans."""
        return self._capacity

    @property
    def evicted(self) -> int:
        """How many completed spans the ring buffer has dropped."""
        with self._lock:
            return self._evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def finished(self) -> list[Span]:
        """A snapshot of the completed spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        """Remove and return all completed spans, oldest first."""
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
            return spans

    def current_span(self) -> Span | None:
        """The innermost open span on *this* thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- span lifecycle ---------------------------------------------------- #

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_span(
        self, name: str, *, parent: Span | None = None, **attributes
    ) -> Span:
        """Open a span; it nests under ``parent`` or this thread's top.

        A span with no parent (explicit or implicit) starts a new trace.
        The returned span must be closed with :meth:`end_span` (or use
        the :meth:`span` context manager).
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        # next() on itertools.count is atomic under the GIL.
        span = Span(
            name=name,
            trace_id=parent.trace_id if parent else next(self._next_trace_id),
            span_id=next(self._next_span_id),
            parent_id=parent.span_id if parent else None,
            start_wall=time.time(),
            start_perf=time.perf_counter(),
            attributes=dict(attributes) if attributes else {},
        )
        stack.append(span)
        return span

    def end_span(self, span: Span, **attributes) -> Span:
        """Close ``span``, record its duration and publish it to the ring."""
        span.duration_s = time.perf_counter() - span.start_perf
        if attributes:
            span.attributes.update(attributes)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order closure
            stack.remove(span)
        self._publish(span)
        return span

    @contextmanager
    def span(
        self, name: str, *, parent: Span | None = None, **attributes
    ) -> Iterator[Span]:
        """``with tracer.span("query"): ...`` — start/end as a context."""
        opened = self.start_span(name, parent=parent, **attributes)
        try:
            yield opened
        finally:
            self.end_span(opened)

    def record_completed(
        self,
        name: str,
        *,
        parent: Span | None = None,
        start_wall: float | None = None,
        duration_s: float = 0.0,
        **attributes,
    ) -> Span:
        """Graft an already-measured span onto ``parent``.

        The span never touches the thread stack, so it may be recorded
        from any thread after the fact.
        """
        span = Span(
            name=name,
            trace_id=parent.trace_id if parent else next(self._next_trace_id),
            span_id=next(self._next_span_id),
            parent_id=parent.span_id if parent else None,
            start_wall=time.time() if start_wall is None else start_wall,
            start_perf=0.0,
            duration_s=duration_s,
            attributes=dict(attributes) if attributes else {},
        )
        self._publish(span)
        return span

    def event(self, name: str, *, parent: Span | None = None, **attributes) -> Span:
        """Record an instantaneous (zero-duration) span."""
        if parent is None:
            parent = self.current_span()
        return self.record_completed(name, parent=parent, **attributes)

    def _publish(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._capacity:
                self._evicted += 1
            self._spans.append(span)


class _NullSpanContext:
    """Shared no-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


def maybe_span(tracer: Tracer | None, name: str, *, parent: Span | None = None, **attributes):
    """``with maybe_span(tracer, "phase") as span:`` — one branch when off.

    Returns a shared stateless no-op context (yielding ``None``) when
    ``tracer`` is ``None``, so call sites stay branch-cheap with
    telemetry disabled; instrumentation must therefore guard attribute
    writes with ``if span is not None``.
    """
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, parent=parent, **attributes)
