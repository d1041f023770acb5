"""Micro-batching scheduler: coalesce concurrent requests into batches.

The PIC model's batched forward pass is what makes inference cheap
(:meth:`predict_proba_batch` amortises per-call overhead across a
block-diagonal union). A request's graphs enter a bounded queue
together, as consecutive *units* of at most ``max_batch``; one worker
thread takes the oldest unit, adds every other unit already queued
while the batch stays at or under ``max_batch`` graphs, and runs the
batch through one compute call. Nothing waits on a clock:
a lone request is computed as soon as the worker is free, and
concurrent clients still merge, because whatever queued during one
compute joins the next.

Two deliberate properties:

- **Serialised inference.** All compute runs on the single worker
  thread, so the shared model's internal caches (encoder memo, base
  features, template batch plans) never see concurrent writers.
- **Admission control.** The queue holds at most ``max_queue`` graphs
  (a larger unit is admitted into an empty queue). By default a
  submitter waits for room without holding any lock the worker needs
  (``serve.queue.backpressure``); ``block_on_full=False`` raises
  :class:`~repro.errors.AdmissionError` instead (``serve.queue.rejected``).

Telemetry: ``serve.batch.size`` histogram, ``serve.batch.flush_full``
counter (batches that reached ``max_batch``), ``serve.queue.depth``
gauge; :meth:`MicroBatcher.stats` mirrors them for the ``status`` op.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence

from repro import obs
from repro.errors import AdmissionError, ServeError
from repro.obs.flight import active_recorder

__all__ = ["BatcherConfig", "PendingResult", "MicroBatcher"]


@dataclass(frozen=True)
class BatcherConfig:
    """Coalescing and admission knobs (CLI: ``--max-batch``)."""

    #: Largest batch that merging several queued units may build.
    max_batch: int = 8
    #: Bounded-queue capacity in graphs (admission control).
    max_queue: int = 256
    #: Full-queue policy: ``True`` blocks the submitter (backpressure),
    #: ``False`` raises :class:`~repro.errors.AdmissionError`.
    block_on_full: bool = True


class PendingResult:
    """One unit's future: its payloads' results, in order, set once.

    Carries the lifecycle timestamps of its trip through the batcher
    (all in the batcher's clock): ``enqueued_at`` stamped by
    :meth:`MicroBatcher.submit`, ``compute_start``/``compute_end`` and
    ``batch_size`` (graphs in the batch it joined) stamped by the worker
    before resolving. The waiting thread may read them after
    :meth:`result` returns (the event wait orders the stamps); the
    serving backend turns them into synthetic ``serve.batch`` /
    ``serve.queue_wait`` / ``serve.model`` spans.
    """

    __slots__ = (
        "payloads",
        "_event",
        "_value",
        "_error",
        "enqueued_at",
        "compute_start",
        "compute_end",
        "batch_size",
    )

    def __init__(self, payloads: List[object], enqueued_at: float) -> None:
        self.payloads = payloads
        self._event = threading.Event()
        self._value: List[object] = []
        self._error: Optional[BaseException] = None
        self.enqueued_at = enqueued_at
        self.compute_start: float = 0.0
        self.compute_end: Optional[float] = None
        self.batch_size: int = 0

    def result(self, timeout: Optional[float] = None) -> List[object]:
        if not self._event.wait(timeout):
            raise ServeError("timed out waiting for a served prediction")
        if self._error is not None:
            raise self._error
        return self._value


class MicroBatcher:
    """One worker thread turning a queue of request units into batches.

    ``compute`` receives the payloads of one batch (a list) and must
    return one result per payload, in order. Any exception it raises is
    propagated to every requester in that batch.
    """

    def __init__(
        self,
        compute: Callable[[List[object]], Sequence[object]],
        config: Optional[BatcherConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or BatcherConfig()
        if self.config.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.config.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self._compute = compute
        self._clock = clock
        #: Queued units and their total graph count; ``_ready`` guards
        #: them and the counters.
        self._units: Deque[PendingResult] = deque()
        self._queued = 0
        self._ready = threading.Condition()
        self._submitted = 0
        self._rejected = 0
        self._backpressure = 0
        self._batches = 0
        self._flush_full = 0
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()

    # -- submission ----------------------------------------------------------

    def _fits(self, size: int) -> bool:
        return self._queued == 0 or self._queued + size <= self.config.max_queue

    def submit(self, payloads: Sequence[object]) -> List[PendingResult]:
        """Enqueue one request's payloads together, as consecutive units of
        at most ``max_batch``; one :class:`PendingResult` per unit."""
        now, step, size = self._clock(), self.config.max_batch, len(payloads)
        units = [
            PendingResult(list(payloads[i : i + step]), now)
            for i in range(0, size, step)
        ]
        with self._ready:
            if self._closed:
                raise ServeError("micro-batcher is closed")
            shed = not self.config.block_on_full and not self._fits(size)
            if shed:
                self._rejected += 1
            else:
                depth = self._admit(units, size)
        if shed:
            obs.add("serve.queue.rejected")
            recorder = active_recorder()
            if recorder is not None:  # load shedding is a post-mortem trigger
                recorder.dump_now(
                    "admission_error",
                    detail=f"queue full at {self.config.max_queue} pending",
                )
            raise AdmissionError(
                f"serving queue full ({self.config.max_queue} pending); "
                "request rejected by admission control"
            )
        obs.gauge("serve.queue.depth", depth)
        return units

    def _admit(self, units: List[PendingResult], size: int) -> int:
        """Queue ``units`` once they fit; the caller holds ``_ready``, which
        ``wait`` releases, so the worker drains while this one waits."""
        if not self._fits(size):
            self._backpressure += 1
            obs.add("serve.queue.backpressure")
            while not self._closed and not self._fits(size):
                self._ready.wait()
            if self._closed:
                raise ServeError("micro-batcher is closed")
        self._units.extend(units)
        self._queued += size
        self._submitted += size
        self._ready.notify_all()
        return self._queued

    # -- the worker ----------------------------------------------------------

    def _take(self) -> List[PendingResult]:
        """The oldest unit plus every queued unit that still fits under
        ``max_batch``; empty once closed and drained."""
        with self._ready:
            while not self._units and not self._closed:
                self._ready.wait()
            units, size = [], 0
            while self._units and (
                size + len(self._units[0].payloads) <= self.config.max_batch
            ):
                units.append(self._units.popleft())
                size += len(units[-1].payloads)
            if not units:
                return units
            self._queued -= size
            self._batches += 1
            if size >= self.config.max_batch:
                self._flush_full += 1
                obs.add("serve.batch.flush_full")
            self._ready.notify_all()  # room for blocked submitters
        obs.observe("serve.batch.size", size)
        return units

    def _run(self) -> None:
        while True:
            units = self._take()
            if not units:
                return
            payloads = [payload for unit in units for payload in unit.payloads]
            started = self._clock()
            error: Optional[BaseException] = None
            try:
                results = self._compute(payloads)
                if len(results) != len(payloads):
                    raise ServeError(
                        f"compute returned {len(results)} results "
                        f"for a batch of {len(payloads)}"
                    )
            except BaseException as raised:  # propagate to every requester
                error = raised
            finished = self._clock()
            offset = 0
            for unit in units:
                unit.batch_size = len(payloads)
                unit.compute_start, unit.compute_end = started, finished
                end = offset + len(unit.payloads)
                if error is None:
                    unit._value = list(results[offset:end])
                unit._error = error
                unit._event.set()
                offset = end

    # -- lifecycle / stats ---------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work, drain the queue, and join the worker."""
        with self._ready:
            if self._closed:
                return
            self._closed = True
            self._ready.notify_all()
        self._worker.join(timeout)

    def stats(self) -> dict:
        with self._ready:
            return {
                "submitted": self._submitted,
                "batches": self._batches,
                "flush_full": self._flush_full,
                "rejected": self._rejected,
                "backpressure": self._backpressure,
                "queue_depth": self._queued,
                "max_batch": self.config.max_batch,
                "max_queue": self.config.max_queue,
            }
