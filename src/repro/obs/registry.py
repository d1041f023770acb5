"""The metrics registry: one telemetry domain for one process.

Owns every instrument (counters, gauges, histograms), the per-thread
open-span stacks, and the optional event sink. All timestamps are
seconds relative to the registry's creation (``perf_counter`` based),
so traces from different runs line up at zero.

Each registry carries a **process name** and a **trace id** (see
:mod:`repro.obs.propagation`): every emitted event is stamped with
``proc``, spans additionally with ``trace``, which is what lets
``repro report --merge`` stitch the JSON-lines files of a campaign
client and a serve server into one tree. Span stacks are *thread-local*
— the socket server handles concurrent requests on handler threads, and
each thread's spans nest independently instead of corrupting a shared
stack — while seq numbers, span ids, and sink writes are serialised
under one lock so file ordering stays well-defined.

Event schema (JSON-lines, one object per line, ``seq``-ordered):

- ``{"event": "span", "seq": n, "name": ..., "id": i, "parent": j|null,
  "depth": d, "start": s, "dur": s, "attrs": {...}, "proc": ...,
  "trace": ...}`` — emitted when a span exits (children therefore appear
  before their parents; the tree is reconstructed from ``id``/``parent``).
  A span opened while a remote caller's context is active (see
  :meth:`MetricsRegistry.remote_context`) carries the caller's trace id
  and, at the root, ``"remote": "process:span_id"`` naming its
  cross-process parent.
- ``{"event": "point", "seq": n, "name": ..., "t": s, "fields": {...}}``
  — a one-off observation (e.g. per-epoch training stats).
- ``{"event": "metrics", "seq": n, "counters": ..., "gauges": ...,
  "histograms": ..., "spans": ...}`` — the final snapshot, emitted once
  by :meth:`MetricsRegistry.close`.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.propagation import (
    TraceContext,
    default_process_name,
    new_trace_id,
    sanitize_process_name,
)
from repro.obs.tracing import Span

__all__ = ["MetricsRegistry"]


class _ThreadState(threading.local):
    """Per-thread span stack and remote caller context."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.remote: Optional[TraceContext] = None


class MetricsRegistry:
    """Counters, gauges, histograms, spans, and an optional sink."""

    def __init__(
        self,
        sink=None,
        clock: Callable[[], float] = time.perf_counter,
        process: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.sink = sink
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        self._next_span_id = 1
        self._lock = threading.Lock()
        self._state = _ThreadState()
        self.process = sanitize_process_name(process or default_process_name())
        self.trace_id = trace_id or new_trace_id()
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: Per-span-name aggregates: count, total and exclusive seconds.
        self.span_stats: Dict[str, Dict[str, float]] = {}
        self.closed = False

    # -- clock ---------------------------------------------------------------

    def now(self) -> float:
        """Seconds since the registry was created."""
        return self._clock() - self._t0

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, boundaries: Optional[Sequence[float]] = None
    ) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name, boundaries)
        return instrument

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, /, **attrs: object) -> Span:
        return Span(self, name, dict(attrs))

    def current_span(self) -> Optional[Span]:
        stack = self._state.stack
        return stack[-1] if stack else None

    def current_trace_id(self) -> str:
        """This thread's effective trace id (a remote caller's wins)."""
        remote = self._state.remote
        if remote is not None and remote.trace_id:
            return remote.trace_id
        return self.trace_id

    @contextlib.contextmanager
    def remote_context(self, context: Optional[TraceContext]) -> Iterator[None]:
        """Adopt a remote caller's trace for this thread's scope.

        While active, spans ending on this thread carry the caller's
        trace id, and a root span (no local parent) records
        ``"remote": context.span_ref`` — the cross-process parent link
        the trace merge resolves. Nests and restores on exit; a ``None``
        context is a no-op so call sites need no branching.
        """
        state = self._state
        previous, state.remote = state.remote, context
        try:
            yield
        finally:
            state.remote = previous

    def _allocate_span_id(self) -> int:
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
            return span_id

    def _enter_span(self, span: Span) -> None:
        stack = self._state.stack
        span.span_id = self._allocate_span_id()
        span.parent_id = stack[-1].span_id if stack else None
        span.depth = len(stack)
        span.child_seconds = 0.0
        stack.append(span)
        span.start = self.now()

    def _exit_span(self, span: Span, failed: bool = False) -> None:
        span.duration = self.now() - span.start
        stack = self._state.stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested exit: unwind to the span
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        if stack:
            stack[-1].child_seconds += span.duration
        with self._lock:
            stats = self.span_stats.setdefault(
                span.name, {"count": 0, "total": 0.0, "exclusive": 0.0}
            )
            stats["count"] += 1
            stats["total"] += span.duration
            stats["exclusive"] += max(span.duration - span.child_seconds, 0.0)
        event: Dict[str, object] = {
            "event": "span",
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "depth": span.depth,
            "start": round(span.start, 6),
            "dur": round(span.duration, 6),
            "attrs": span.attrs,
            "trace": self.current_trace_id(),
        }
        remote = self._state.remote
        if span.parent_id is None and remote is not None:
            event["remote"] = remote.span_ref
        if failed:
            event["failed"] = True
        self.emit(event)

    # -- events --------------------------------------------------------------

    def emit(self, event: Dict[str, object]) -> None:
        """Stamp ``proc``/``seq`` and forward to the sink (dropped when
        sink-less)."""
        event = dict(event)
        event.setdefault("proc", self.process)
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            if self.sink is not None:
                self.sink.write(event)

    def point(self, name: str, /, **fields: object) -> None:
        """A one-off named observation (per-epoch stats and the like)."""
        self.emit(
            {"event": "point", "name": name, "t": round(self.now(), 6),
             "fields": fields}
        )

    # -- snapshot / shutdown ---------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Everything the registry knows, as plain JSON-able data."""
        return {
            "counters": {
                name: counter.snapshot() for name, counter in sorted(self.counters.items())
            },
            "gauges": {
                name: gauge.snapshot() for name, gauge in sorted(self.gauges.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self.histograms.items())
            },
            "spans": {
                name: dict(stats) for name, stats in sorted(self.span_stats.items())
            },
        }

    def close(self) -> Dict[str, object]:
        """Emit the final metrics snapshot, close the sink; idempotent."""
        summary = self.snapshot()
        if not self.closed:
            self.closed = True
            self.emit({"event": "metrics", **summary})
            if self.sink is not None:
                self.sink.close()
        return summary
