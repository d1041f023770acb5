"""Flight recorder: the last N telemetry events, dumped on trouble.

A :class:`FlightRecorder` is a tee :class:`~repro.obs.TelemetrySink`
that keeps a bounded in-memory ring of recent events (wrapping another
sink, or standing alone when no trace file was requested). Nothing is
written in steady state; on a *trigger* — unhandled crash, ``SIGUSR1``,
or an explicit :meth:`dump_now` — the ring, a registry snapshot, and the
slow-request log are dumped to disk in one atomic write (via
:mod:`repro.resilience.atomic`), so the file at the dump path is always
a complete, parseable post-mortem even if the process dies mid-dump.

The slow-request log is a second, smaller ring fed by
:meth:`note_slow`: serve calls over a configurable threshold land there
with their op, latency, and batch size, giving the dump a "what was
slow recently" section without logging every request.

Install via :func:`install` (used by the CLI's ``--flight PATH``):
wraps the active registry's sink, registers the ``SIGUSR1`` handler
and a ``sys.excepthook`` chain, and returns the recorder. All of this
is opt-in — no ring, no handlers, zero overhead unless requested.
"""

from __future__ import annotations

import collections
import json
import signal
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional

from repro.obs.sink import TelemetrySink

__all__ = ["FlightRecorder", "install", "active_recorder"]

#: The process-wide installed recorder (mirrors ``obs._ACTIVE``).
_RECORDER: Optional["FlightRecorder"] = None


class FlightRecorder(TelemetrySink):
    """Bounded ring of recent events with atomic dump-on-trigger."""

    def __init__(
        self,
        path: str,
        capacity: int = 512,
        slow_capacity: int = 64,
        inner: Optional[TelemetrySink] = None,
    ) -> None:
        self.path = path
        self.inner = inner
        self._ring: collections.deque = collections.deque(maxlen=int(capacity))
        self._slow: collections.deque = collections.deque(maxlen=int(slow_capacity))
        self._lock = threading.Lock()
        self._dumps = 0

    # -- sink interface ------------------------------------------------------

    def write(self, event: Dict[str, object]) -> None:
        with self._lock:
            self._ring.append(event)
        if self.inner is not None:
            self.inner.write(event)

    def close(self) -> None:
        if self.inner is not None:
            self.inner.close()

    # -- slow-request log ----------------------------------------------------

    def note_slow(self, op: str, seconds: float, **detail: object) -> None:
        """Record one over-threshold serve call for the dump's slow log."""
        entry: Dict[str, object] = {
            "op": str(op),
            "seconds": round(float(seconds), 6),
            "unix": time.time(),
        }
        entry.update(detail)
        with self._lock:
            self._slow.append(entry)

    # -- dumping -------------------------------------------------------------

    def dump_now(self, reason: str, detail: Optional[str] = None) -> str:
        """Atomically write the post-mortem JSON; returns the path."""
        from repro import obs
        from repro.resilience.atomic import atomic_write_text

        registry = obs.active()
        with self._lock:
            events: List[Dict[str, object]] = list(self._ring)
            slow: List[Dict[str, object]] = list(self._slow)
            self._dumps += 1
            dumps = self._dumps
        payload: Dict[str, object] = {
            "reason": str(reason),
            "detail": detail,
            "unix": time.time(),
            "dump_number": dumps,
            "events": events,
            "slow_requests": slow,
            "metrics": registry.snapshot() if registry is not None else None,
        }
        atomic_write_text(
            self.path, json.dumps(payload, sort_keys=True, default=str)
        )
        return self.path

    # -- trigger wiring ------------------------------------------------------

    def install_handlers(self) -> None:
        """Hook ``SIGUSR1`` and chain ``sys.excepthook`` (main thread only
        for signals; a non-main-thread install skips the signal hook)."""
        try:
            signal.signal(signal.SIGUSR1, self._on_sigusr1)
        except (ValueError, AttributeError, OSError):
            pass  # not the main thread, or platform without SIGUSR1
        previous_hook = sys.excepthook

        def hook(exc_type, exc, tb):
            try:
                self.dump_now(
                    "crash",
                    detail="".join(
                        traceback.format_exception(exc_type, exc, tb)
                    )[-4000:],
                )
            except Exception:
                pass  # never mask the original crash
            previous_hook(exc_type, exc, tb)

        sys.excepthook = hook

    def _on_sigusr1(self, signum, frame) -> None:
        self.dump_now("sigusr1")


def install(
    path: str,
    capacity: int = 512,
    slow_capacity: int = 64,
    handlers: bool = True,
) -> FlightRecorder:
    """Create a recorder, splice it ahead of the active registry's sink,
    and (optionally) register the signal/crash triggers.

    When no registry is active one is *not* created — the recorder still
    installs (for ``note_slow`` + triggers) but sees no span events; the
    CLI installs ``--flight`` after ``--trace``/``--metrics`` so the
    common path tees everything.
    """
    global _RECORDER
    from repro import obs

    registry = obs.active()
    recorder = FlightRecorder(
        path,
        capacity=capacity,
        slow_capacity=slow_capacity,
        inner=registry.sink if registry is not None else None,
    )
    if registry is not None:
        registry.sink = recorder
    if handlers:
        recorder.install_handlers()
    _RECORDER = recorder
    return recorder


def active_recorder() -> Optional[FlightRecorder]:
    """The installed recorder, or ``None`` (the common, zero-cost case)."""
    return _RECORDER
