"""Dynamic execution of selected CTs, in-process or in worker processes.

:func:`~repro.execution.concurrent.run_concurrent` is a pure function of
``(kernel, programs, hints, ...)`` — no shared state, no RNG — so a CT
gives the same result wherever it runs. Results always come back **in
task order**, downstream accounting (race detection, coverage, cost
ledger) replays serially, and campaign results are byte-identical to a
serial run.

This module is also the one place a process boundary is implemented:
:func:`worker_main` is the child loop and :class:`WorkerProcess` the
parent handle of every forked worker in the repo — the CT pool behind
``--workers`` (:class:`~repro.resilience.supervisor.SupervisedRunner`)
and the fleet's leased workers (:mod:`repro.fleet.worker`). Both keep
their own policy (deadline/retry/quarantine there, leases/receipts
there) and share the mechanism. A worker process buys isolation — a CT
that wedges or kills its executor costs one worker, not the campaign —
not speed: a CT is cheaper than pickling it through a pipe (see
``docs/PERFORMANCE.md``).

Determinism contract:

- each :class:`CTTask` carries a ``seed`` derived from the campaign seed
  and the task's position via :func:`repro.rng.derive_seed` — the
  deterministic token any future stochastic runner must draw from
  (today's interpreter is RNG-free, so the seed is carried, not drawn);
- workers never touch the parent's telemetry: :func:`worker_main` clears
  any registry inherited across ``fork`` (a forked JSON-lines sink would
  interleave writes with the parent), and the parent re-emits the
  per-run execution counters from the collected results
  (:func:`reemit_execution_counters`) so traces stay complete.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro import rng as rngmod
from repro.errors import ExecutionLimitExceeded, ReproError
from repro.execution.concurrent import ScheduleHint, run_concurrent
from repro.execution.machine import DEFAULT_MAX_STEPS
from repro.execution.trace import ConcurrentResult
from repro.kernel.code import Kernel

__all__ = [
    "CTTask",
    "SerialCTRunner",
    "WorkerProcess",
    "make_runner",
    "worker_main",
]

#: Exit status of a worker killed by an injected ``crash`` fault.
CRASH_EXIT_STATUS = 13

#: How long an injected ``hang`` sleeps inside a worker. The parent's
#: deadline (or lease) always expires first and the worker is killed
#: before it wakes.
HANG_SLEEP_SECONDS = 600.0

Program = Tuple[Tuple[str, Tuple[int, ...]], ...]


def _freeze_program(program: Sequence[Tuple[str, Sequence[int]]]) -> Program:
    return tuple((name, tuple(arguments)) for name, arguments in program)


@dataclass(frozen=True)
class CTTask:
    """One concurrent test to execute: N STI programs plus hints."""

    programs: Tuple[Program, ...]
    hints: Tuple[ScheduleHint, ...] = ()
    #: Deterministic per-CT token (see the module docstring); results for
    #: a task depend only on the task's own fields, never on which worker
    #: runs it or in what order.
    seed: int = 0
    max_steps: int = DEFAULT_MAX_STEPS
    memory_model: str = "sc"
    irq_plan: Tuple[Tuple[int, str], ...] = ()

    @classmethod
    def build(
        cls,
        programs: Sequence[Sequence[Tuple[str, Sequence[int]]]],
        hints: Sequence[ScheduleHint],
        seed: int = 0,
        index: int = 0,
        memory_model: str = "sc",
        irq_plan: Sequence[Tuple[int, str]] = (),
    ) -> "CTTask":
        """Freeze programs/hints and derive the per-CT seed from
        ``(seed, index)``."""
        return cls(
            programs=tuple(_freeze_program(program) for program in programs),
            hints=tuple(hints),
            seed=rngmod.derive_seed(seed, f"ct-task:{index}"),
            memory_model=memory_model,
            irq_plan=tuple(irq_plan),
        )


def _run_task(kernel: Kernel, task: CTTask) -> ConcurrentResult:
    """Execute one CT; an exceeded instruction budget is a *recorded*
    hang outcome, never an exception escaping into the campaign.

    :func:`~repro.execution.concurrent.run_concurrent` already converts
    budget overruns inside the scheduling loop; this guard classifies
    overruns from any other path (e.g. thread setup) identically, so the
    serial and parallel runners have one uniform hang contract.
    """
    try:
        return run_concurrent(
            kernel,
            task.programs,
            hints=task.hints,
            max_steps=task.max_steps,
            memory_model=task.memory_model,
            irq_plan=task.irq_plan,
        )
    except ExecutionLimitExceeded:
        return ConcurrentResult(
            covered_blocks=tuple(set() for _ in task.programs),
            steps=task.max_steps,
            completed=False,
            failure="hang",
        )


def _count_hangs(results: Sequence[ConcurrentResult]) -> None:
    hangs = sum(1 for result in results if result.hung)
    if hangs:
        obs.add("execution.hangs", hangs)


class SerialCTRunner:
    """Executes tasks one by one in-process (the default)."""

    workers = 0
    #: Nothing to report or checkpoint (see ``SupervisedRunner.reporting``).
    reporting = False

    def run_many(
        self, kernel: Kernel, tasks: Sequence[CTTask]
    ) -> List[ConcurrentResult]:
        results = [_run_task(kernel, task) for task in tasks]
        _count_hangs(results)
        return results

    def close(self) -> None:
        pass


def reemit_execution_counters(results: Sequence[ConcurrentResult]) -> None:
    """Replay the per-run counters of CTs that ran in a worker process.

    Workers run with telemetry off (see :func:`worker_main`); the parent
    calls this on what they return, so a trace accounts for every
    execution exactly as an in-process run does.
    """
    if not results:
        return
    obs.add("execution.runs", len(results))
    obs.add("execution.steps", sum(result.steps for result in results))
    deadlocks = sum(1 for result in results if result.deadlocked)
    if deadlocks:
        obs.add("execution.deadlocks", deadlocks)
    _count_hangs(results)


def worker_main(
    conn,
    handle_job: Callable[[object], object],
    before_job: Optional[Callable[[object, Optional[str]], None]] = None,
    after_reply: Optional[Callable[[], None]] = None,
) -> None:
    """The child side of every worker process: one job at a time.

    Receives ``(job, fault_kind)`` messages (``None`` shuts down) and
    answers each with ``("ok", handle_job(job))`` or ``("error", text)``.
    ``fault_kind`` is an injected fault (:mod:`repro.resilience.faults`):
    ``crash`` exits abruptly, ``hang`` sleeps until the parent kills us,
    ``transient`` fails the attempt. ``before_job(job, fault_kind)`` runs
    before the fault takes effect and ``after_reply()`` after each reply
    is sent — the fleet's heartbeat hooks.
    """
    # A registry inherited across fork would double-write events (and
    # interleave with the parent on a shared file descriptor).
    obs.clear_registry()
    # The pid the parent recorded before forking: a getppid() here could
    # already read the re-parented pid if the parent died first.
    parent = multiprocessing.parent_process()
    parent_pid = parent.pid if parent is not None else os.getppid()
    while True:
        # Poll instead of blocking in recv: every worker forked later
        # inherits the parent's end of our pipe, so a dead parent
        # (SIGKILL, injected die) never EOFs us — but it does re-parent
        # us, which getppid exposes.
        while not conn.poll(0.5):
            if os.getppid() != parent_pid:
                return
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        job, fault_kind = message
        if before_job is not None:
            before_job(job, fault_kind)
        if fault_kind == "crash":
            os._exit(CRASH_EXIT_STATUS)
        if fault_kind == "hang":
            time.sleep(HANG_SLEEP_SECONDS)
            reply = ("error", "injected hang outlived its sleep")
        elif fault_kind == "transient":
            reply = ("error", "injected transient fault")
        else:
            try:
                reply = ("ok", handle_job(job))
            except ReproError as error:
                reply = ("error", f"{type(error).__name__}: {error}")
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return
        if after_reply is not None:
            after_reply()


class WorkerProcess:
    """The parent side: one forked worker and the pipe that feeds it.

    ``target(conn, *args)`` runs in the child and must end up in
    :func:`worker_main`. The handle tracks the one job in flight (any
    caller-side token) and when it was dispatched; what a late or dead
    worker *means* — retry, quarantine, lease expiry — is the caller's
    policy.
    """

    def __init__(self, target: Callable[..., None], *args: object) -> None:
        # fork shares the kernel (and model) pages copy-on-write; fall
        # back where the platform does not offer it (Windows spawn-only).
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform-dependent
            context = multiprocessing.get_context()
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=target, args=(child_conn, *args), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.job: Optional[object] = None
        self.dispatched_at = 0.0

    @property
    def idle(self) -> bool:
        return self.job is None

    def dispatch(self, job: object, payload: object, fault_kind: Optional[str]) -> None:
        """Send ``payload`` to the worker; ``job`` is what :meth:`take_job`
        hands back when the reply (or the worker's death) arrives."""
        self.job = job
        self.dispatched_at = time.monotonic()
        try:
            self.conn.send((payload, fault_kind))
        except OSError:
            # The worker died while idle. Not an error here: its EOF is
            # already waiting for recv(), which is where deaths surface.
            pass

    def take_job(self) -> Optional[object]:
        job, self.job = self.job, None
        return job

    def recv(self) -> Optional[Tuple[str, object]]:
        """The worker's ``(status, payload)`` reply, or ``None`` when the
        pipe hit EOF: the process died mid-job."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def kill(self) -> None:
        """Terminate immediately (hung, dead or untrusted worker) and reap.

        SIGKILL, not SIGTERM: a worker forked from a process that has a
        Python SIGTERM handler (``repro --trace`` installs one) inherits
        it, and a SIGTERM that lands right after the fork is dropped
        when the child clears its pending signals, leaving the join
        waiting forever.
        """
        self.conn.close()
        self.process.kill()
        self.process.join()

    def stop(self) -> None:
        """Polite shutdown: the sentinel, five seconds to act on it (a
        busy worker finishes its job first), then reap."""
        try:
            self.conn.send(None)
        except OSError:  # the worker is already gone
            pass
        self.process.join(timeout=5)
        self.kill()


def wait_ready(workers: Iterable[WorkerProcess], timeout: float) -> List[WorkerProcess]:
    """The busy ``workers`` with a reply (or an EOF) to :meth:`~WorkerProcess
    .recv`, waiting at most ``timeout`` seconds for the first."""
    busy = [worker for worker in workers if not worker.idle]
    ready = mp_connection.wait([worker.conn for worker in busy], timeout=timeout)
    return [worker for worker in busy if worker.conn in ready]


def make_runner(workers: int, policy=None, fault_plan=None):
    """Build the CT runner for a campaign.

    ``workers <= 0`` with neither ``policy`` nor ``fault_plan`` is the
    in-process :class:`SerialCTRunner`. Everything else is a
    :class:`~repro.resilience.supervisor.SupervisedRunner` — the only
    worker pool there is — so a pooled campaign always has per-CT
    deadlines, retries, quarantine and pool→serial fallback (see
    ``docs/ROBUSTNESS.md``); ``policy``/``fault_plan`` tune or exercise
    that, they do not select a different pool.
    """
    if workers <= 0 and policy is None and fault_plan is None:
        return SerialCTRunner()
    from repro.resilience.supervisor import SupervisedRunner

    return SupervisedRunner(workers, policy=policy, fault_plan=fault_plan)
