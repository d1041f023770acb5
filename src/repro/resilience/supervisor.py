"""Supervised CT execution: timeouts, retries, quarantine, fallback.

Real kernel concurrency testers cannot assume a healthy substrate —
executions of a buggy kernel routinely wedge the worker VM — so every
dynamic execution that leaves the campaign process is supervised:

- **per-CT wall-clock timeouts** — a worker that exceeds the deadline is
  killed and replaced, and the CT is retried;
- **bounded retries with deterministic backoff accounting** — failed
  attempts are retried up to ``max_retries`` times; the exponential
  backoff a production system would sleep is *accounted* (counters and
  the ``resilience.backoff_seconds`` histogram) rather than slept, so
  tests stay fast and results stay deterministic;
- **quarantine** — a CT that keeps failing is recorded as a
  failed-but-counted result (``failure="quarantined"``) instead of
  wedging the campaign;
- **pool→serial fallback** — after more than ``max_worker_deaths``
  worker deaths the supervisor stops trusting process isolation and runs
  the remaining CTs in-process.

Every event is counted in :mod:`repro.obs` metrics (``resilience.retries``,
``resilience.timeouts``, ``resilience.quarantined``,
``resilience.fallbacks``, ``resilience.worker_deaths``) and mirrored on
the runner instance for the campaign's run report.

:class:`SupervisedRunner` runs every CT a campaign executes. With
``workers=0`` (the default) it runs them in-process; ``--workers N``
gets the pool with the default policy, and ``--ct-timeout``/
``--retries``/``--inject-faults`` tune or exercise the same runner. The pool is a :class:`~repro.execution.parallel.WorkerPool`
of :func:`~repro.execution.parallel.worker_main` loops over ``_run_task``
— the process mechanics and the deadline rule live there, the policy
here. Results are returned in task order and, absent injected or real
faults, are byte-identical to in-process execution: each CT is the same
pure function of its task. Fault-free, the runner reports nothing
(:attr:`SupervisedRunner.reporting`), so results and checkpoints carry
no trace of which path ran them.

Fault injection (:mod:`repro.resilience.faults`) plugs in here: injected
worker crashes and hangs are *real* in pool mode (``os._exit`` in the
worker, a sleep past the deadline) and simulated in serial mode, so one
fault plan drives both unit tests and soak runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Sequence

from repro import obs
from repro.errors import ExecutionError
from repro.execution.parallel import (
    OVERDUE,
    CTTask,
    WorkerPool,
    _run_task,
    reemit_execution_counters,
    worker_main,
)
from repro.execution.trace import ConcurrentResult
from repro.kernel.code import Kernel
from repro.resilience.faults import FaultPlan

__all__ = ["SupervisionPolicy", "SupervisedRunner"]


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of supervised execution."""

    #: Per-CT wall-clock deadline (pool mode; injected hangs in serial
    #: mode time out immediately, without waiting).
    timeout_seconds: float = 30.0
    #: Failed attempts are retried up to this many times before the CT
    #: is quarantined.
    max_retries: int = 2
    #: Base of the exponential backoff *accounted* per retry
    #: (``backoff_seconds * 2**attempt``); never actually slept.
    backoff_seconds: float = 0.5
    #: Worker deaths tolerated before falling back to serial execution.
    max_worker_deaths: int = 3


@dataclass(frozen=True)
class _Job:
    """One CT execution attempt in flight."""

    pos: int  # position in this run_many batch
    task: CTTask
    index: int  # campaign-global task index (fault-plan key)
    attempt: int = 0


def _quarantined_result(task: CTTask) -> ConcurrentResult:
    """The failed-but-counted result recorded for a poison CT."""
    return ConcurrentResult(
        covered_blocks=tuple(set() for _ in task.programs),
        failure="quarantined",
    )


class SupervisedRunner:
    """The CT runner, pooled (``workers > 0``) or in-process.

    ``run_many(kernel, tasks)`` returns results in task order, with the
    timeout/retry/quarantine/fallback behaviour described in the module
    docstring. Carries its own counters (:attr:`retries`,
    :attr:`timeouts`, :attr:`quarantined`, :attr:`fallbacks`,
    :attr:`worker_deaths`, :attr:`backoff_seconds`) and supports
    :meth:`state_dict`/:meth:`load_state` so a resumed campaign
    continues fault-plan positions and accounting exactly.
    """

    def __init__(
        self,
        workers: int,
        policy: Optional[SupervisionPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.workers = max(0, int(workers))
        self.policy = policy or SupervisionPolicy()
        self._requested = policy is not None or fault_plan is not None
        self.plan = fault_plan or FaultPlan(seed=0, spec="")
        self.retries = 0
        self.timeouts = 0
        self.quarantined = 0
        self.worker_deaths = 0
        self.fallbacks = 0
        self.backoff_seconds = 0.0
        self._next_index = 0
        self._fallback = False
        self._pool: Optional[WorkerPool] = None
        self._pool_kernel: Optional[Kernel] = None

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self, kernel: Kernel) -> WorkerPool:
        if self._pool is not None and self._pool_kernel is not kernel:
            self.close()
        if self._pool is None:
            self._pool = WorkerPool(
                self.workers, worker_main, partial(_run_task, kernel)
            )
            self._pool_kernel = kernel
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
        self._pool = None

    # -- persistence (campaign journal) --------------------------------------

    @property
    def reporting(self) -> bool:
        """Whether campaign results and checkpoints carry the counters.

        Always when supervision or fault injection was asked for, and —
        so a real fault is never silent — as soon as any counter is
        non-zero. A fault-free ``--workers N`` campaign reports nothing,
        which keeps it byte-identical to a serial one.
        """
        return self._requested or any(self.summary().values())

    def state_dict(self) -> Dict[str, object]:
        return {
            "next_index": self._next_index,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "worker_deaths": self.worker_deaths,
            "fallbacks": self.fallbacks,
            "backoff_seconds": self.backoff_seconds,
            "fallback_engaged": self._fallback,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self._next_index = int(state["next_index"])
        self.retries = int(state["retries"])
        self.timeouts = int(state["timeouts"])
        self.quarantined = int(state["quarantined"])
        self.worker_deaths = int(state["worker_deaths"])
        self.fallbacks = int(state["fallbacks"])
        self.backoff_seconds = float(state["backoff_seconds"])
        self._fallback = bool(state["fallback_engaged"])

    def summary(self) -> Dict[str, float]:
        """Counters for the campaign's run report."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "worker_deaths": self.worker_deaths,
            "fallbacks": self.fallbacks,
            "backoff_seconds": self.backoff_seconds,
        }

    # -- execution -----------------------------------------------------------

    def run_many(
        self, kernel: Kernel, tasks: Sequence[CTTask]
    ) -> List[ConcurrentResult]:
        if not tasks:
            return []
        jobs = [
            _Job(pos=pos, task=task, index=self._next_index + pos)
            for pos, task in enumerate(tasks)
        ]
        self._next_index += len(tasks)
        results: List[Optional[ConcurrentResult]] = [None] * len(tasks)
        if self.workers <= 0 or self._fallback:
            for job in jobs:
                results[job.pos] = self._run_serial_job(kernel, job)
        else:
            self._run_pool(kernel, deque(jobs), results)
        return results  # type: ignore[return-value]

    def _fault_kind(self, job: _Job) -> Optional[str]:
        return self.plan.at_dispatch(job.index, job.attempt)

    # -- failure bookkeeping (shared by serial and pool paths) ---------------

    def _account_retry(self, job: _Job) -> _Job:
        self.retries += 1
        obs.add("resilience.retries")
        delay = self.policy.backoff_seconds * (2**job.attempt)
        self.backoff_seconds += delay
        obs.observe("resilience.backoff_seconds", delay)
        return replace(job, attempt=job.attempt + 1)

    def _account_quarantine(self, job: _Job) -> ConcurrentResult:
        self.quarantined += 1
        obs.add("resilience.quarantined")
        return _quarantined_result(job.task)

    def _account_timeout(self) -> None:
        self.timeouts += 1
        obs.add("resilience.timeouts")

    def _account_worker_death(self) -> None:
        self.worker_deaths += 1
        obs.add("resilience.worker_deaths")

    def _engage_fallback_if_due(self) -> None:
        if not self._fallback and self.worker_deaths > self.policy.max_worker_deaths:
            self._fallback = True
            self.fallbacks += 1
            obs.add("resilience.fallbacks")

    # -- serial path ---------------------------------------------------------

    def _run_serial_job(self, kernel: Kernel, job: _Job) -> ConcurrentResult:
        while True:
            fault_kind = self._fault_kind(job)
            if fault_kind is None:
                try:
                    result = _run_task(kernel, job.task)
                except ExecutionError:
                    pass  # transient framework failure: retry below
                else:
                    if result.hung:
                        obs.add("execution.hangs")
                    return result
            elif fault_kind == "crash":
                self._account_worker_death()
                self._engage_fallback_if_due()
            elif fault_kind == "hang":
                # No real worker to wait on: the timeout is charged
                # immediately, keeping serial soak runs fast.
                self._account_timeout()
            if job.attempt >= self.policy.max_retries:
                return self._account_quarantine(job)
            job = self._account_retry(job)

    # -- pool path -----------------------------------------------------------

    def _run_pool(
        self,
        kernel: Kernel,
        pending: Deque[_Job],
        results: List[Optional[ConcurrentResult]],
    ) -> None:
        pool = self._ensure_pool(kernel)
        while pending or pool.busy:
            if self._fallback:
                # Process isolation is no longer trusted: reclaim the
                # in-flight jobs and finish everything in-process.
                for job in pool.close():
                    pending.appendleft(job)
                self._pool = None
                while pending:
                    job = pending.popleft()
                    results[job.pos] = self._run_serial_job(kernel, job)
                return
            pool.fill(pending, attrgetter("task"), self._fault_kind)
            for _, job, reply in pool.collect(self.policy.timeout_seconds):
                if reply is OVERDUE:
                    self._account_timeout()
                elif reply is None:
                    # The worker died mid-task (a real crash).
                    self._account_worker_death()
                    self._engage_fallback_if_due()
                elif reply[0] == "ok":
                    results[job.pos] = reply[1]
                    # Only what a worker ran: in-process runs (fallback)
                    # have already counted themselves.
                    reemit_execution_counters([reply[1]])
                    continue
                if job.attempt >= self.policy.max_retries:
                    results[job.pos] = self._account_quarantine(job)
                else:
                    pending.append(self._account_retry(job))
