"""Fleet coordinator: shard a campaign across worker processes, aggregate
crash-exactly.

The coordinator is the only process that holds campaign *state* — the
explorer object with its cost ledger, race dedup, coverage sets and
selection strategy. Workers (:mod:`repro.fleet.worker`)
hold none: they score candidate pools and execute pre-seeded tasks,
both pure functions of their inputs. That split is what lets a fleet of
N processes, with jobs landing in any order and any job retried on any
worker, fold down to a :class:`CampaignResult` byte-identical to the
single-process campaign.

How byte-identity survives the fan-out: the coordinator is a *driver*
of :func:`~repro.core.mlpct.run_campaign`, the one campaign loop, in
place of ``explore_cti``. It runs the explorer's *own* per-CTI stages
(``plan_cti`` → ``select`` → ``fold``, see :mod:`repro.core.mlpct`) —
the same three calls ``explore_cti`` makes — each strictly in CTI
order, and ships only the pure work in between to the workers:

- ``plan_cti`` runs for the whole stream up front; an explorer that
  ``predicts`` gets one *score job* per CTI (workers return one boolean
  bitmap per candidate — RNG-free, per-graph exact across batching and
  serving substrates).
- ``select`` runs for CTI *k* once CTIs ``< k`` are selected and CTI
  *k*'s bitmaps (if any) have landed, in whatever order the score jobs
  finished; the tasks it froze fan out as one *execute job*.
- ``fold`` runs for CTI *k* once CTIs ``< k`` are folded and its execute
  job has landed — so every ledger charge, race-dedup decision, and
  history checkpoint lands exactly where the sequential campaign put it.

There is no fleet-side selection or accounting logic to keep in step
with the explorer's; what differs from the inline driver is scheduling
only (asynchronous, deadline-bound, whole pools scored ahead of
selection).

Crash-exact resume: ``run_campaign`` owns the journal
(:mod:`repro.resilience.journal`) for both drivers — one record per
*folded* CTI plus an atomic checkpoint. Because the selection pipeline
runs ahead of the fold, ``explore(k)`` folds through CTI *k* and no
further and returns, beside the folded plan, a *selection-side
snapshot* captured when CTI *k* was selected (task counter, visit
counts, strategy state); the loop checkpoints the live fold-side state
(ledger, races, coverage, history) with that snapshot on top, so a
coordinator SIGKILLed at any instant resumes from its last fold and
reproduces the identical aggregate.

Fault injection reuses :class:`repro.resilience.faults.FaultPlan`,
keyed by fleet job id (score job for CTI ``k`` is ``2k``, execute job
is ``2k+1`` — stable across resume): ``crash`` kills the worker,
``hang`` wedges it, ``transient`` fails one attempt, ``die@j`` kills
the *coordinator* at dispatch (for crash-resume tests). Every accepted
job writes a provenance receipt (:mod:`repro.fleet.receipts`).

Workers run in the repo's one worker pool
(:class:`~repro.execution.parallel.WorkerPool`), under the rule every
worker process has: a worker whose pipe hits EOF died, and one whose
job is unanswered ``lease_seconds`` after dispatch is wedged — whatever
wedged it. Either way the pool has already killed it and forked a
fresh worker into its slot; the coordinator reassigns the job with its
attempt bumped, so ``max_job_attempts`` bounds every death a job can
cause. A job's *lease* is just that: its dispatch plus
``lease_seconds``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.mlpct import CampaignResult, CTIPlan, ExplorationStats, run_campaign
from repro.errors import FleetError
from repro.execution.parallel import OVERDUE, WorkerPool, reemit_execution_counters
from repro.fleet.receipts import (
    execute_inputs_digest,
    execute_result_digest,
    score_inputs_digest,
    score_result_digest,
    verify_receipts,
    write_receipt,
)
from repro.fleet.report import FleetReport
from repro.fleet.worker import WorkerSpec, _fleet_worker_main
from repro.obs.export import HeartbeatWriter
from repro.resilience.faults import FaultPlan
from repro.resilience.journal import CampaignJournal

__all__ = ["FleetConfig", "FleetCoordinator", "run_fleet"]


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of a fleet campaign."""

    #: Worker processes (each forked, one job at a time).
    workers: int = 2
    #: Seconds a dispatched job may go unanswered before its worker is
    #: buried and the job reassigned. A healthy job, serve-socket
    #: retries included, must finish within it.
    lease_seconds: float = 30.0
    #: Directory for the coordinator's heartbeat file (``repro top DIR``
    #: renders it); ``None`` writes none.
    heartbeat_dir: Optional[str] = None
    #: Directory for per-job provenance receipts; ``None`` disables them.
    receipts_dir: Optional[str] = None
    #: Total attempts a single job may consume before the fleet gives up
    #: (jobs are never silently dropped). Every worker death costs the
    #: job it was running one attempt, so this bounds deaths as well.
    max_job_attempts: int = 4
    #: Fleet-level fault-injection spec (``crash@2,hang:0.1,...``),
    #: keyed by job id. ``die@j`` kills the *coordinator* at dispatch of
    #: job ``j`` (attempt 0 only), for crash-resume tests.
    fault_spec: Optional[str] = None
    #: Socket path of a shared ``repro serve`` server; workers then score
    #: through their own resilient :class:`SocketBackend` connections.
    #: ``None`` scores against the fork-shared in-process model.
    serve_socket: Optional[str] = None


def _check_shardable(exploration, config: FleetConfig) -> None:
    """Raise :class:`FleetError` unless a campaign explored under
    ``exploration`` can be sharded by a fleet configured as ``config``."""
    if exploration.supervision is not None or exploration.fault_spec:
        raise FleetError(
            "fleet campaigns own their fault handling; build the "
            "explorer without supervision or a runner fault spec "
            "(use FleetConfig.fault_spec to inject fleet faults)"
        )
    if exploration.parallel_workers:
        raise FleetError(
            "fleet campaigns own their parallelism; build the "
            "explorer with parallel_workers=0"
        )
    if config.workers < 1:
        raise FleetError("a fleet needs at least one worker")


@dataclass
class _Job:
    """One unit of work. Job ids are a stable function of the CTI
    (score = ``2k``, execute = ``2k+1``) so fault plans and receipts
    mean the same thing before and after a coordinator resume."""

    job_id: int
    kind: str  # "score" | "execute"
    cti_index: int
    attempt: int = 0


@dataclass
class _Flight:
    """What the coordinator tracks for one CTI in flight, beyond the
    explorer's own :class:`CTIPlan`."""

    index: int
    plan: CTIPlan
    #: Selection-side half of this CTI's checkpoint: the visit counts as
    #: of its ``plan_cti``, then what its ``select`` advanced.
    snapshot: Dict[str, object]
    #: Score-job result, one bool bitmap per pooled candidate (``[]``
    #: when there is nothing to score); ``None`` while the job is in
    #: flight, and again once selection has consumed it.
    predicted: Optional[List[np.ndarray]] = None
    #: Execute-job result; set only after selection.
    results: Optional[List[object]] = None


class FleetCoordinator:
    """Drives each CTI of one :func:`run_campaign` through the fleet
    (``start``, ``explore``, ``close``), or fails it precisely."""

    def __init__(
        self,
        explorer,
        ctis: Sequence[Tuple[object, ...]],
        config: Optional[FleetConfig] = None,
    ) -> None:
        self.explorer = explorer
        self.ctis = list(ctis)
        self.config = config or FleetConfig()
        _check_shardable(explorer.config, self.config)
        # The model score jobs run against in the workers (fork-shared).
        predictor = explorer.scorer.predictor if explorer.predicts else None
        if (
            explorer.predicts
            and predictor is None
            and self.config.serve_socket is None
        ):
            raise FleetError(
                "an MLPCT fleet needs a model: the explorer has no "
                "predictor and FleetConfig.serve_socket is unset"
            )
        #: What every worker this coordinator forks is handed.
        self._spec = WorkerSpec(
            kernel=explorer.kernel,
            graphs=explorer.graphs,
            ctis=self.ctis,
            batch_size=explorer.config.score_batch_size,
            predictor=predictor,
            serve_socket=self.config.serve_socket,
        )
        self.fault_plan = FaultPlan.parse(
            self.config.fault_spec or "", seed=explorer.seed
        )
        self.report = FleetReport(
            campaign=explorer.label,
            workers=self.config.workers,
            ctis=len(self.ctis),
            receipts_dir=self.config.receipts_dir,
        )
        self._flights: Dict[int, _Flight] = {}
        self._pending: Deque[_Job] = deque()
        self._pool: Optional[WorkerPool] = None
        self._next_select = 0
        self._next_fold = 0
        self._coordinator_beat: Optional[HeartbeatWriter] = None

    # -- the explorer's stages, in strict CTI order ---------------------------

    def _plan(self, start_index: int) -> None:
        explorer = self.explorer
        for index in range(start_index, len(self.ctis)):
            plan = explorer.plan_cti(*self.ctis[index])
            flight = _Flight(
                index, plan, {"visit_counts": explorer.visit_count_state()}
            )
            self._flights[index] = flight
            if explorer.predicts and plan.proposals:
                self._pending.append(_Job(2 * index, "score", index))
                self.report.score_jobs += 1
            else:
                flight.predicted = []

    def _select(self, flight: _Flight) -> None:
        self.explorer.select(flight.plan, flight.predicted)
        flight.snapshot.update(self.explorer.selection_state())
        flight.predicted = None  # bitmaps are folded into the digest; free them
        if flight.plan.tasks:
            self._pending.append(_Job(2 * flight.index + 1, "execute", flight.index))
            self.report.execute_jobs += 1
        else:
            flight.results = []

    def _advance_pipeline(self, through: int) -> None:
        """Select as far as the landed scores allow; fold through CTI
        ``through`` and no further (a later fold would leak into its
        checkpoint)."""
        while self._next_select < len(self.ctis):
            flight = self._flights[self._next_select]
            if flight.predicted is None:
                break  # score job still in flight
            self._select(flight)
            self._next_select += 1
        while self._next_fold <= through and self._next_fold < self._next_select:
            flight = self._flights[self._next_fold]
            if flight.results is None:
                break  # execute job still in flight
            self.explorer.fold(flight.plan, flight.results)
            self._next_fold += 1

    # -- jobs and replies -----------------------------------------------------

    def _fault_kind(self, job: _Job) -> Optional[str]:
        # A die@j exits here: what SIGKILL at dispatch time looks like
        # to the fleet journal.
        return self.fault_plan.at_dispatch(job.job_id, job.attempt)

    def _job_message(self, job: _Job) -> Dict[str, object]:
        message: Dict[str, object] = {
            "job_id": job.job_id,
            "kind": job.kind,
            "cti_index": job.cti_index,
            "attempt": job.attempt,
        }
        flight = self._flights[job.cti_index]
        if job.kind == "score":
            message["proposals"] = flight.plan.proposals
        else:
            message["tasks"] = flight.plan.tasks
        return message

    def _reassign(self, job: _Job) -> None:
        attempt = job.attempt + 1
        if attempt >= self.config.max_job_attempts:
            raise FleetError(
                f"fleet job {job.job_id} ({job.kind} for CTI "
                f"{job.cti_index}) failed {self.config.max_job_attempts} "
                "attempts; refusing to drop it"
            )
        self._pending.appendleft(
            _Job(job.job_id, job.kind, job.cti_index, attempt)
        )
        self.report.reassignments += 1
        obs.add("fleet.reassignments")

    def _finished(self, slot: int, job: _Job, reply) -> None:
        """Fold one job's reply: accept it, or reassign the job when its
        worker died or wedged or the attempt failed."""
        if reply is None or reply is OVERDUE:
            if reply is OVERDUE:
                self.report.lease_expirations += 1
                obs.add("fleet.lease_expirations")
            self.report.worker_deaths += 1
            obs.add("fleet.worker_deaths")
            self._reassign(job)
            return
        status, body = reply
        if status == "error":
            self.report.transient_errors += 1
            obs.add("fleet.transient_errors")
            self._reassign(job)
            return
        payload, meta = body
        reconnects = int(meta.get("reconnects", 0))
        if reconnects:
            self.report.serve_reconnects += reconnects
            obs.add("serve.reconnects", reconnects)
        flight = self._flights[job.cti_index]
        if job.kind == "score":
            flight.predicted = payload
        else:
            flight.results = payload
            reemit_execution_counters(payload)
        self.report.jobs_completed += 1
        self.report.per_worker_jobs[slot] = (
            self.report.per_worker_jobs.get(slot, 0) + 1
        )
        obs.add("fleet.jobs_completed")
        pid = self._pool.workers[slot].process.pid
        self._write_receipt(job, flight, payload, slot, pid)

    def _write_receipt(
        self, job: _Job, flight: _Flight, payload, slot: int, pid: int
    ) -> None:
        if self.config.receipts_dir is None:
            return
        entries = self.ctis[job.cti_index]
        if job.kind == "score":
            inputs = score_inputs_digest(flight.plan.proposals)
            result = score_result_digest(payload)
        else:
            inputs = execute_inputs_digest(flight.plan.tasks)
            result = execute_result_digest(payload)
        write_receipt(
            self.config.receipts_dir,
            {
                "campaign": self.explorer.label,
                "job": job.job_id,
                "kind": job.kind,
                "cti_index": job.cti_index,
                "cti": [entry.sti.sti_id for entry in entries],
                "seed": self.explorer.seed,
                "worker": slot,
                "pid": pid,
                "attempt": job.attempt,
                "attempts": job.attempt + 1,
                "inputs": inputs,
                "result": result,
            },
        )
        self.report.receipts += 1

    def _beat(self) -> None:
        if self._coordinator_beat is None:
            return
        now = time.monotonic()
        busy = "".join(
            f"; w{slot} job {worker.job.job_id} attempt {worker.job.attempt} "
            f"age {now - worker.dispatched_at:.1f}s"
            for slot, worker in enumerate(self._pool.workers)
            if not worker.idle
        )
        self._coordinator_beat.update(
            done=self._next_fold,
            races=self.explorer.race_detector.total,
            executions=self.explorer.ledger.executions,
            detail=f"pending {len(self._pending)}, reassigned "
            f"{self.report.reassignments}{busy}",
        )

    # -- the driver of run_campaign -----------------------------------------

    def start(self, first: int) -> None:
        """Plan CTIs ``first`` onward, select those with nothing to
        score and fork the workers."""
        self._next_select = self._next_fold = first
        self.report.resumed_ctis = first
        if self.config.receipts_dir is not None:
            os.makedirs(self.config.receipts_dir, exist_ok=True)
        if self.config.heartbeat_dir is not None:
            os.makedirs(self.config.heartbeat_dir, exist_ok=True)
            self._coordinator_beat = HeartbeatWriter(
                os.path.join(self.config.heartbeat_dir, "coordinator.json"),
                role="coordinator",
            )
            self._coordinator_beat.begin(
                f"fleet:{self.explorer.label}", len(self.ctis), done=first
            )
        self._plan(first)
        # CTIs with nothing to score (PCT: all of them) are selected here,
        # so their execute jobs are queued before the workers fork.
        self._advance_pipeline(first - 1)
        self._pool = WorkerPool(
            self.config.workers, _fleet_worker_main, self._spec
        )

    def explore(self, index: int) -> Tuple[CTIPlan, Dict[str, object]]:
        """Drive the pool until CTI ``index`` is folded; returns its plan
        and the selection-side state as of its ``select``."""
        pool = self._pool
        while True:
            # Fold before collecting: results already in must not wait
            # out an idle pool's poll.
            self._advance_pipeline(index)
            self._beat()
            if self._next_fold > index:
                flight = self._flights.pop(index)
                return flight.plan, flight.snapshot
            self._check_stall()
            dispatched = pool.fill(
                self._pending, self._job_message, self._fault_kind
            )
            if dispatched:
                obs.add("fleet.dispatched", dispatched)
            for finished in pool.collect(self.config.lease_seconds):
                self._finished(*finished)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()

    def _verify_receipt_coverage(self, per_cti: List[ExplorationStats]) -> None:
        """Every executed job must be covered by a verified receipt.

        Derivable even across a resume: CTI ``k`` consumed inferences
        iff a score job ran for it, and executed CTs iff an execute job
        ran — both visible in the per-CTI stats the journal restored.
        """
        receipts = verify_receipts(
            self.config.receipts_dir, self.explorer.label
        )
        by_job = {int(receipt["job"]): receipt for receipt in receipts}
        for index, stats in enumerate(per_cti):
            if stats.inferences > 0 and 2 * index not in by_job:
                raise FleetError(
                    f"CTI {index} consumed predictions but has no score-"
                    "job receipt"
                )
            if stats.executions > 0 and 2 * index + 1 not in by_job:
                raise FleetError(
                    f"CTI {index} executed CTs but has no execute-job "
                    "receipt"
                )
        self.report.receipts = len(receipts)

    def _check_stall(self) -> None:
        if self._pending or self._pool.busy:
            return
        # Nothing pending, nothing leased, campaign incomplete: if the
        # next CTI to select or fold still lacks its job's result, that
        # job was lost.
        waiting = self._flights.get(self._next_select)
        if waiting is not None and waiting.predicted is None:
            raise FleetError(
                f"fleet stalled: CTI {self._next_select} is waiting for a "
                "score job that is neither pending nor leased"
            )
        if (
            self._next_fold < self._next_select
            and self._flights[self._next_fold].results is None
        ):
            raise FleetError(
                f"fleet stalled: CTI {self._next_fold} is waiting for an "
                "execute job that is neither pending nor leased"
            )


def run_fleet(
    explorer,
    ctis: Sequence[Tuple[object, ...]],
    config: Optional[FleetConfig] = None,
    journal: Optional[CampaignJournal] = None,
) -> Tuple[CampaignResult, FleetReport]:
    """Run a campaign across a worker fleet; returns ``(campaign,
    fleet_report)`` with ``campaign`` byte-identical to
    :func:`repro.core.mlpct.run_campaign` on the same explorer config.
    """
    coordinator = FleetCoordinator(explorer, ctis, config=config)
    config = coordinator.config
    started = time.monotonic()
    with obs.span(
        "fleet.run", label=explorer.label, workers=config.workers, ctis=len(ctis)
    ):
        campaign = run_campaign(explorer, ctis, journal=journal, driver=coordinator)
    coordinator.report.elapsed_seconds = time.monotonic() - started
    if config.receipts_dir is not None:
        coordinator._verify_receipt_coverage(campaign.per_cti)
    return campaign, coordinator.report
