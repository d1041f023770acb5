"""Fleet worker processes: executors for score and execute jobs.

A fleet worker is a forked child running the repo's one worker loop
(:func:`repro.execution.parallel.worker_main`, behind a
:class:`~repro.execution.parallel.WorkerProcess` handle the coordinator
holds): it takes one job at a time off a pipe and replies with the raw
result. This module supplies what is the fleet's own — the job handler.
Workers do only *pure* work — scoring a candidate pool with the
RNG-free predictor, or executing pre-seeded :class:`CTTask`s — so a job
produces bit-identical output no matter which worker runs it, on which
attempt, in which order. All campaign state (selection strategy, cost
ledger, race dedup, journal) lives in the coordinator; that split is
what makes fleet aggregation byte-identical to the single-process
campaign.

A worker proves nothing about its liveness: the coordinator's
:class:`~repro.execution.parallel.WorkerPool` judges it by the rule
every worker process has — a pipe EOF is a death, a job unanswered
``lease_seconds`` after dispatch a wedge.

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

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scoring import CandidateScorer, iter_score_candidates
from repro.execution.parallel import _run_task, worker_main

__all__ = ["WorkerSpec"]

#: Socket retry budget of a worker scoring through a serve server, with
#: the base of its exponential backoff: generous, so a fleet rides out a
#: serve-server restart instead of failing the job.
SERVE_RETRIES = 8
SERVE_BACKOFF_SECONDS = 0.25


@dataclass
class WorkerSpec:
    """Everything a worker needs, passed through ``fork`` by memory.

    ``predictor`` is the in-process PIC model (shared copy-on-write with
    the coordinator); when ``serve_socket`` is set the worker ignores it
    and scores through its own :class:`SocketBackend` connection
    instead — one connection per process, never a shared descriptor.
    """

    kernel: object
    graphs: object
    ctis: Sequence[Tuple[object, object]]
    batch_size: int = 8
    predictor: Optional[object] = None
    serve_socket: Optional[str] = None


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
    score-or-execute job handler."""
    backend = None
    scorer: Optional[CandidateScorer] = None
    reconnects_sent = 0
    if spec.serve_socket:
        from repro.serve.server import SocketBackend

        backend = SocketBackend(
            spec.serve_socket,
            retries=SERVE_RETRIES,
            backoff_seconds=SERVE_BACKOFF_SECONDS,
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

    try:
        worker_main(conn, handle_job)
    finally:
        if backend is not None:
            backend.close()
