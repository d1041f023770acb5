"""Fleet worker processes: leased executors for score and execute jobs.

A fleet worker is a forked child running the repo's one worker loop
(:func:`repro.execution.parallel.worker_main`, behind a
:class:`~repro.execution.parallel.WorkerProcess` handle the coordinator
holds): it takes one job at a time off a pipe and replies with the raw
result. This module supplies what is the fleet's own — the job handler
and the heartbeat. Workers do only *pure* work — scoring a candidate
pool with the RNG-free predictor, or executing pre-seeded
:class:`CTTask`s — so a job produces bit-identical output no matter
which worker runs it, on which attempt, in which order. All campaign state (selection strategy, cost
ledger, race dedup, journal) lives in the coordinator; that split is
what makes fleet aggregation byte-identical to the single-process
campaign.

Liveness is proven two ways: every pipe message renews the worker's
lease, and a daemon heartbeat thread rewrites the worker's heartbeat
file (the one :class:`~repro.obs.export.HeartbeatWriter` snapshot
shape, role ``worker``) every interval. Injected
hangs pause the heartbeat thread first — a hung worker must *look*
hung, or lease expiry could never be tested.

Wire protocol (``worker_main``'s, pickled over a multiprocessing pipe):

- coordinator -> worker: ``(job, fault_kind)`` with ``job`` a dict
  (``job_id``, ``kind``, ``cti_index``, ``attempt``, plus ``proposals``
  for score jobs or ``tasks`` for execute jobs), or ``None`` to shut
  down.
- worker -> coordinator: ``("ok", (payload, meta))`` or ``("error",
  message)``. ``meta`` carries operational counters (serve reconnects
  since the last accepted reply) that the coordinator folds into the
  fleet report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scoring import CandidateScorer, iter_score_candidates
from repro.execution.parallel import _run_task, worker_main
from repro.obs.export import HeartbeatWriter

__all__ = ["WorkerSpec"]


@dataclass
class WorkerSpec:
    """Everything a worker needs, passed through ``fork`` by memory.

    ``predictor`` is the in-process PIC model (shared copy-on-write with
    the coordinator); when ``serve_socket`` is set the worker ignores it
    and scores through its own :class:`SocketBackend` connection
    instead — one connection per process, never a shared descriptor.
    """

    worker_id: int
    kernel: object
    graphs: object
    ctis: Sequence[Tuple[object, object]]
    batch_size: int = 8
    predictor: Optional[object] = None
    serve_socket: Optional[str] = None
    serve_retries: int = 8
    serve_backoff_seconds: float = 0.25
    heartbeat_path: Optional[str] = None
    heartbeat_interval: float = 0.2


class _WorkerBeat:
    """Heartbeat file writer running on a daemon thread.

    Writes immediately on job transitions and every ``interval`` seconds
    in between. A job that arrives with an injected ``hang`` stops the
    writes without stopping the thread, so the worker goes silent
    exactly like a wedged process would: the lease expires and the
    coordinator kills it.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        self._writer = HeartbeatWriter(
            spec.heartbeat_path, interval=0.0, role="worker"
        )
        self._interval = spec.heartbeat_interval
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._paused = False
        self._jobs_done = 0
        self._detail = "idle"
        self._writer.begin(f"fleet-worker-{spec.worker_id}", total=0)
        self._write()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._write()

    def _write(self) -> None:
        with self._lock:
            if self._paused:
                return
            self._writer.update(
                done=self._jobs_done, force=True, detail=self._detail
            )

    def begin_job(self, job: dict, fault_kind: Optional[str]) -> None:
        with self._lock:
            self._detail = (
                f"{job['kind']}:{job['job_id']} (cti {job['cti_index']}) "
                f"attempt {job['attempt']}"
            )
        self._write()
        with self._lock:
            self._paused = fault_kind == "hang"

    def finish_job(self) -> None:
        with self._lock:
            self._jobs_done += 1
            self._paused = False
            self._detail = "idle"
        self._write()

    def close(self) -> None:
        self._stop.set()


def _score_job(spec: WorkerSpec, scorer: CandidateScorer, job: dict) -> List[np.ndarray]:
    """Score a candidate pool; returns one bool bitmap per candidate.

    Scoring is RNG-free and per-graph exact across batching and serving
    substrates, so these bitmaps equal what the sequential campaign
    would have computed inline.
    """
    entries = spec.ctis[job["cti_index"]]
    return [
        np.asarray(candidate.predicted, dtype=bool)
        for candidate in iter_score_candidates(
            scorer, spec.graphs, *entries, job["proposals"]
        )
    ]


def _fleet_worker_main(conn, spec: WorkerSpec) -> None:
    """Entry point of a forked fleet worker: the shared
    :func:`~repro.execution.parallel.worker_main` loop over a
    score-or-execute job handler, with the heartbeat as its hooks."""
    beat = _WorkerBeat(spec) if spec.heartbeat_path else None
    backend = None
    scorer: Optional[CandidateScorer] = None
    reconnects_sent = 0
    if spec.serve_socket:
        from repro.serve.server import SocketBackend

        backend = SocketBackend(
            spec.serve_socket,
            retries=spec.serve_retries,
            backoff_seconds=spec.serve_backoff_seconds,
        )

    def handle_job(job: dict):
        nonlocal scorer, reconnects_sent
        if job["kind"] == "score":
            if scorer is None:
                scorer = CandidateScorer(
                    spec.predictor, batch_size=spec.batch_size, backend=backend
                )
            payload = _score_job(spec, scorer, job)
        else:
            payload = [_run_task(spec.kernel, task) for task in job["tasks"]]
        meta = {}
        if backend is not None:
            meta["reconnects"] = backend.reconnects - reconnects_sent
            reconnects_sent = backend.reconnects
        return payload, meta

    hooks = (beat.begin_job, beat.finish_job) if beat is not None else ()
    try:
        worker_main(conn, handle_job, *hooks)
    finally:
        if backend is not None:
            backend.close()
        if beat is not None:
            beat.close()
