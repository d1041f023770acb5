"""Fleet coordinator: shard a campaign across leased workers, aggregate
crash-exactly.

The coordinator is the only process that holds campaign *state* — the
explorer object with its cost ledger, race dedup, coverage sets,
selection strategy, and journal. Workers (:mod:`repro.fleet.worker`)
hold none: they score candidate pools and execute pre-seeded tasks,
both pure functions of their inputs. That split is what lets a fleet of
N processes, with jobs landing in any order and any job retried on any
worker, fold down to a :class:`CampaignResult` byte-identical to the
single-process campaign.

How byte-identity survives the fan-out: the coordinator runs the
explorer's *own* per-CTI stages (``plan_cti`` → ``select`` → ``fold``,
see :mod:`repro.core.mlpct`) — the same three calls ``explore_cti``
makes — each strictly in CTI order, and ships only the pure work in
between to the workers:

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
only (asynchronous, leased, whole pools scored ahead of selection).

Crash-exact resume: the coordinator reuses the campaign journal
(:mod:`repro.resilience.journal`) — one record per *folded* CTI plus an
atomic checkpoint. Because the selection pipeline runs ahead of the
fold, the checkpoint for CTI *k* composes the live fold-side state
(ledger, races, coverage, history) with a *selection-side snapshot*
captured when CTI *k* was selected (task counter, visit counts,
strategy state); a coordinator SIGKILLed at any instant resumes from
its last fold and reproduces the identical aggregate.

Fault injection reuses :class:`repro.resilience.faults.FaultPlan`,
keyed by fleet job id (score job for CTI ``k`` is ``2k``, execute job
is ``2k+1`` — stable across resume): ``crash`` kills the worker,
``hang`` wedges it until its lease expires, ``transient`` fails one
attempt, ``die@j`` kills the *coordinator* at dispatch (for
crash-resume tests). Every accepted job writes a provenance receipt
(:mod:`repro.fleet.receipts`).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.mlpct import CampaignResult, CTIPlan, ExplorationStats
from repro.errors import FleetError
from repro.execution.parallel import (
    WorkerProcess,
    reemit_execution_counters,
    wait_ready,
)
from repro.fleet.leases import LeaseTable
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
from repro.obs.export import HeartbeatWriter, read_heartbeat
from repro.resilience.faults import FaultPlan
from repro.resilience.journal import CampaignJournal
from repro.resilience.supervisor import DIE_EXIT_STATUS

__all__ = ["FleetConfig", "FleetCoordinator", "run_fleet"]


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of a fleet campaign."""

    #: Worker processes (each forked, one job at a time).
    workers: int = 2
    #: Seconds of silence (no pipe traffic, no heartbeat-file write)
    #: after which a worker's lease is revoked and its job reassigned.
    lease_seconds: float = 30.0
    #: Worker heartbeat-file rewrite interval.
    heartbeat_interval: float = 0.2
    #: Directory for coordinator + worker heartbeat files (``repro top
    #: DIR`` renders it). ``None`` uses a private temp dir, deleted at
    #: exit — leases still work, nothing is observable.
    heartbeat_dir: Optional[str] = None
    #: Directory for per-job provenance receipts; ``None`` disables them.
    receipts_dir: Optional[str] = None
    #: Total attempts a single job may consume before the fleet gives up
    #: (jobs are never silently dropped).
    max_job_attempts: int = 4
    #: Deaths a worker slot survives before it is quarantined (not
    #: respawned) — mirrors the supervisor's ``max_worker_deaths``.
    max_worker_deaths: int = 3
    #: Fleet-level fault-injection spec (``crash@2,hang:0.1,...``),
    #: keyed by job id. ``die@j`` kills the *coordinator* at dispatch of
    #: job ``j`` (attempt 0 only), for crash-resume tests.
    fault_spec: Optional[str] = None
    #: Socket path of a shared ``repro serve`` server; workers then score
    #: through their own resilient :class:`SocketBackend` connections.
    #: ``None`` scores against the fork-shared in-process model.
    serve_socket: Optional[str] = None
    #: Worker-side socket retry budget (generous: a fleet should ride out
    #: a serve-server restart, not fail the job).
    serve_retries: int = 8
    serve_backoff_seconds: float = 0.25
    #: Event-loop poll interval.
    poll_seconds: float = 0.05


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
    """One leased unit of work. Job ids are a stable function of the CTI
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
    """Drives one fleet campaign to completion (or a precise failure)."""

    def __init__(
        self,
        explorer,
        ctis: Sequence[Tuple[object, ...]],
        config: Optional[FleetConfig] = None,
        journal: Optional[CampaignJournal] = None,
    ) -> None:
        self.explorer = explorer
        self.ctis = list(ctis)
        self.config = config or FleetConfig()
        self.journal = journal
        _check_shardable(explorer.config, self.config)
        #: The model score jobs run against in the workers (fork-shared).
        self._predictor = explorer.scorer.predictor if explorer.predicts else None
        if (
            explorer.predicts
            and self._predictor is None
            and self.config.serve_socket is None
        ):
            raise FleetError(
                "an MLPCT fleet needs a model: the explorer has no "
                "predictor and FleetConfig.serve_socket is unset"
            )
        explorer.journaled = journal is not None
        self.fault_plan = (
            FaultPlan.parse(self.config.fault_spec, seed=explorer.seed)
            if self.config.fault_spec
            else None
        )
        self.leases = LeaseTable(self.config.lease_seconds)
        self.report = FleetReport(
            campaign=explorer.label,
            workers=self.config.workers,
            ctis=len(self.ctis),
            receipts_dir=self.config.receipts_dir,
        )
        self._flights: Dict[int, _Flight] = {}
        self._pending: Deque[_Job] = deque()
        self._workers: List[Optional[WorkerProcess]] = []
        self._deaths: Dict[int, int] = {}
        self._quarantined: set = set()
        self._beat_seen: Dict[int, float] = {}
        self._next_select = 0
        self._next_fold = 0
        self._result_stats: List[ExplorationStats] = []
        self._outstanding = 0  # jobs dispatched or pending, not yet accepted
        self._heartbeat_dir = self.config.heartbeat_dir
        self._own_heartbeat_dir = False
        self._coordinator_beat: Optional[HeartbeatWriter] = None
        self._last_liveness = 0.0

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
                self._enqueue(_Job(2 * index, "score", index))
                self.report.score_jobs += 1
            else:
                flight.predicted = []

    def _score_pool(self, flight: _Flight) -> List[object]:
        # Workers score at most what the sequential cap would ever
        # consider.
        return flight.plan.proposals[: self.explorer.config.inference_cap]

    def _enqueue(self, job: _Job) -> None:
        self._pending.append(job)
        self._outstanding += 1

    def _select(self, flight: _Flight) -> None:
        self.explorer.select(flight.plan, flight.predicted)
        flight.snapshot.update(self.explorer.selection_state())
        flight.predicted = None  # bitmaps are folded into the digest; free them
        if flight.plan.tasks:
            self._enqueue(_Job(2 * flight.index + 1, "execute", flight.index))
            self.report.execute_jobs += 1
        else:
            flight.results = []

    def _fold(self, flight: _Flight) -> None:
        self.explorer.fold(flight.plan, flight.results)
        self._result_stats.append(flight.plan.stats)
        if self.journal is not None:
            # Checkpoint state as-of this CTI: the live fold-side fields,
            # with the selection-side ones as they were when this CTI was
            # selected (the pipeline has usually selected further ahead).
            state = self.explorer.state_dict()
            state.update(flight.snapshot)
            self.journal.record_cti(
                self.explorer.label, flight.index, flight.plan, state
            )
        del self._flights[flight.index]

    def _advance_pipeline(self) -> None:
        while self._next_select < len(self.ctis):
            flight = self._flights[self._next_select]
            if flight.predicted is None:
                break  # score job still in flight
            self._select(flight)
            self._next_select += 1
        while self._next_fold < self._next_select:
            flight = self._flights[self._next_fold]
            if flight.results is None:
                break  # execute job still in flight
            self._fold(flight)
            self._next_fold += 1

    # -- workers, dispatch, liveness -----------------------------------------

    def _spawn_worker(self, slot: int) -> WorkerProcess:
        spec = WorkerSpec(
            worker_id=slot,
            kernel=self.explorer.kernel,
            graphs=self.explorer.graphs,
            ctis=self.ctis,
            batch_size=self.explorer.config.score_batch_size,
            predictor=self._predictor,
            serve_socket=self.config.serve_socket,
            serve_retries=self.config.serve_retries,
            serve_backoff_seconds=self.config.serve_backoff_seconds,
            heartbeat_path=os.path.join(
                self._heartbeat_dir, f"worker-{slot}.json"
            ),
            heartbeat_interval=self.config.heartbeat_interval,
        )
        return WorkerProcess(_fleet_worker_main, spec)

    def _fault_kind(self, job: _Job) -> Optional[str]:
        if self.fault_plan is None:
            return None
        fault = self.fault_plan.fault_for(job.job_id, job.attempt)
        return fault.kind if fault is not None else None

    def _job_message(self, job: _Job) -> Dict[str, object]:
        message: Dict[str, object] = {
            "job_id": job.job_id,
            "kind": job.kind,
            "cti_index": job.cti_index,
            "attempt": job.attempt,
        }
        flight = self._flights[job.cti_index]
        if job.kind == "score":
            message["proposals"] = self._score_pool(flight)
        else:
            message["tasks"] = flight.plan.tasks
        return message

    def _dispatch_ready(self, now: float) -> None:
        for slot, worker in enumerate(self._workers):
            if not self._pending:
                return
            if worker is None or not worker.idle:
                continue
            job = self._pending.popleft()
            if (
                self.fault_plan is not None
                and job.attempt == 0
                and self.fault_plan.should_die(job.job_id)
            ):
                # Injected coordinator death: exactly what SIGKILL at
                # dispatch time looks like to the fleet journal.
                os._exit(DIE_EXIT_STATUS)
            worker.dispatch(job, self._job_message(job), self._fault_kind(job))
            self.leases.grant(job.job_id, slot, job.attempt, now)
            obs.add("fleet.dispatched")

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

    def _bury_worker(self, slot: int, job: Optional[_Job]) -> None:
        """Kill a dead/expired worker's process, reassign its job, and
        respawn or quarantine the slot."""
        worker = self._workers[slot]
        worker.kill()
        self.leases.release(slot)
        self._beat_seen.pop(slot, None)
        self.report.worker_deaths += 1
        obs.add("fleet.worker_deaths")
        deaths = self._deaths.get(slot, 0) + 1
        self._deaths[slot] = deaths
        if job is not None:
            self._reassign(job)
        if deaths > self.config.max_worker_deaths:
            self._workers[slot] = None
            self._quarantined.add(slot)
            self.report.quarantined_workers = len(self._quarantined)
            obs.add("fleet.quarantined_workers")
            if all(w is None for w in self._workers):
                raise FleetError(
                    "every fleet worker is quarantined with "
                    f"{self._outstanding} jobs outstanding"
                )
        else:
            self._workers[slot] = self._spawn_worker(slot)

    def _accept(self, slot: int, worker: WorkerProcess, reply) -> None:
        status, body = reply
        job = worker.take_job()
        self.leases.release(slot)
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
        self._outstanding -= 1
        self.report.jobs_completed += 1
        self.report.per_worker_jobs[slot] = (
            self.report.per_worker_jobs.get(slot, 0) + 1
        )
        obs.add("fleet.jobs_completed")
        self._write_receipt(job, flight, payload, slot, worker.process.pid)

    def _write_receipt(
        self, job: _Job, flight: _Flight, payload, slot: int, pid: int
    ) -> None:
        if self.config.receipts_dir is None:
            return
        entries = self.ctis[job.cti_index]
        if job.kind == "score":
            inputs = score_inputs_digest(self._score_pool(flight))
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

    def _drain_messages(self) -> None:
        live = [worker for worker in self._workers if worker is not None]
        if all(worker.idle for worker in live):
            if not self._pending:
                time.sleep(self.config.poll_seconds)
            return
        for worker in wait_ready(live, self.config.poll_seconds):
            slot = self._workers.index(worker)
            reply = worker.recv()
            if reply is None:
                # Pipe gone: the worker process died mid-job.
                self._bury_worker(slot, worker.take_job())
            else:
                self.leases.renew(slot, time.monotonic())
                self._accept(slot, worker, reply)

    def _check_liveness(self, now: float) -> None:
        if now - self._last_liveness < min(
            1.0, max(self.config.lease_seconds / 4.0, self.config.poll_seconds)
        ):
            return
        self._last_liveness = now
        # Heartbeat-file writes renew leases (a busy worker mid-job sends
        # nothing on the pipe, but its beat thread keeps writing).
        for slot, worker in enumerate(self._workers):
            if worker is None or worker.idle:
                continue
            beat = read_heartbeat(
                os.path.join(self._heartbeat_dir, f"worker-{slot}.json")
            )
            if beat is None:
                continue
            stamp = float(beat.get("updated_unix", 0.0))
            if stamp > self._beat_seen.get(slot, 0.0):
                self._beat_seen[slot] = stamp
                self.leases.renew(slot, now)
        for lease in self.leases.expired(now):
            worker = self._workers[lease.worker]
            if worker is None:
                continue
            self.report.lease_expirations += 1
            obs.add("fleet.lease_expirations")
            self._bury_worker(lease.worker, worker.take_job())

    def _beat(self, force: bool = False) -> None:
        if self._coordinator_beat is None:
            return
        now = time.monotonic()
        leases = "".join(
            f"; w{lease.worker} job {lease.job_id} attempt {lease.attempt} "
            f"age {lease.age(now):.1f}s"
            for lease in self.leases.active()
        )
        self._coordinator_beat.update(
            done=self._next_fold,
            races=sum(stats.new_races for stats in self._result_stats),
            executions=sum(stats.executions for stats in self._result_stats),
            force=force,
            detail=f"pending {len(self._pending)}, reassigned "
            f"{self.report.reassignments}{leases}",
        )

    # -- lifecycle ------------------------------------------------------------

    def _setup(self) -> int:
        start_stats: List[ExplorationStats] = []
        start_index = 0
        if self.journal is not None:
            start_stats, start_index = self.journal.prepare(
                self.explorer, self.ctis
            )
        self._result_stats = start_stats
        self._next_select = start_index
        self._next_fold = start_index
        self.report.resumed_ctis = start_index
        if self._heartbeat_dir is None:
            self._heartbeat_dir = tempfile.mkdtemp(prefix="repro-fleet-hb-")
            self._own_heartbeat_dir = True
        else:
            os.makedirs(self._heartbeat_dir, exist_ok=True)
        if self.config.receipts_dir is not None:
            os.makedirs(self.config.receipts_dir, exist_ok=True)
        self._coordinator_beat = HeartbeatWriter(
            os.path.join(self._heartbeat_dir, "coordinator.json"),
            interval=max(self.config.heartbeat_interval, 0.2),
            role="coordinator",
        )
        self._coordinator_beat.begin(
            f"fleet:{self.explorer.label}", len(self.ctis), done=start_index
        )
        self._plan(start_index)
        # CTIs with nothing to score (PCT: all of them) are selected here,
        # so their execute jobs are queued before the workers fork.
        self._advance_pipeline()
        self._workers = [
            self._spawn_worker(slot) for slot in range(self.config.workers)
        ]
        return start_index

    def _teardown(self) -> None:
        for worker in self._workers:
            if worker is not None:
                worker.stop()
        self._workers = []
        if self._own_heartbeat_dir and self._heartbeat_dir:
            shutil.rmtree(self._heartbeat_dir, ignore_errors=True)

    def _finish(self) -> Tuple[CampaignResult, FleetReport]:
        campaign = self.explorer.result()
        campaign.per_cti = self._result_stats
        if self.config.receipts_dir is not None:
            self._verify_receipt_coverage()
        return campaign, self.report

    def _verify_receipt_coverage(self) -> None:
        """Every executed job must be covered by a verified receipt.

        Derivable even across a resume: CTI ``k`` consumed inferences
        iff a score job ran for it, and executed CTs iff an execute job
        ran — both visible in the per-CTI stats the journal restored.
        """
        receipts = verify_receipts(
            self.config.receipts_dir, self.explorer.label
        )
        by_job = {int(receipt["job"]): receipt for receipt in receipts}
        for index, stats in enumerate(self._result_stats):
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

    def run(self) -> Tuple[CampaignResult, FleetReport]:
        started = time.monotonic()
        with obs.span(
            "fleet.run",
            label=self.explorer.label,
            workers=self.config.workers,
            ctis=len(self.ctis),
        ):
            self._setup()
            try:
                while self._next_fold < len(self.ctis):
                    now = time.monotonic()
                    self._dispatch_ready(now)
                    self._drain_messages()
                    self._check_liveness(time.monotonic())
                    self._advance_pipeline()
                    self._beat()
                    self._check_stall()
                self._beat(force=True)
            finally:
                self._teardown()
                self.explorer.close()
        self.report.elapsed_seconds = time.monotonic() - started
        return self._finish()

    def _check_stall(self) -> None:
        if self._next_fold >= len(self.ctis):
            return
        if self._pending:
            return
        if any(w is not None and not w.idle for w in self._workers):
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
    coordinator = FleetCoordinator(explorer, ctis, config=config, journal=journal)
    return coordinator.run()
