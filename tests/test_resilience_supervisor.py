"""Supervised CT execution: timeouts, retries, quarantine, fallback.

Serial mode simulates faults instantly (no sleeping), so accounting can
be asserted exactly; a handful of pool tests make the faults real —
workers genuinely die and hang — to prove the supervisor's recovery
machinery, not just its bookkeeping.
"""

import os
import select
import signal
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.execution.parallel import CTTask, SerialCTRunner
from repro.resilience.faults import FaultPlan
from repro.resilience.journal import result_digest
from repro.resilience.supervisor import SupervisedRunner, SupervisionPolicy

pytestmark = pytest.mark.slow  # CI recovery suite: run via `-m slow`


def _tasks(corpus, count, seed=0):
    entries = corpus.entries
    tasks = []
    for position in range(count):
        entry_a = entries[position % len(entries)]
        entry_b = entries[(position + 1) % len(entries)]
        tasks.append(
            CTTask.build(
                (entry_a.sti.as_pairs(), entry_b.sti.as_pairs()),
                hints=(),
                seed=seed,
                index=position,
            )
        )
    return tasks


def _digests(results):
    return [result_digest(result) for result in results]


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Seconds a killed campaign's workers get to exit.
WORKER_EXIT_DEADLINE = 30.0


def _proc_stat(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name (index 0
    is the state, 1 the parent pid, 19 the start time: proc(5) fields 3,
    4 and 22), or None once the process has been reaped."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _running(workers):
    """``{pid: state}`` of the ``{pid: start time}`` workers that are
    still running: not reaped, not a zombie, and not a recycled pid."""
    running = {}
    for pid, started in workers.items():
        fields = _proc_stat(pid)
        if fields and fields[0] not in ("Z", "X") and fields[19] == started:
            try:
                with open(f"/proc/{pid}/wchan") as handle:
                    waiting = handle.read()
            except OSError:
                waiting = "?"
            running[pid] = f"state {fields[0]}, parent {fields[1]}, wchan {waiting}"
    return running


#: A campaign process that dies without unwinding (SIGKILL, ``die@N``):
#: bring a 3-worker pool up, run one task, report the worker pids, vanish.
_DYING_CAMPAIGN = """
import multiprocessing, os
from repro.graphs.dataset import GraphDatasetBuilder
from repro.kernel import build_kernel
from repro.resilience.supervisor import SupervisedRunner
from tests._journal_driver import KERNEL_CONFIG, SEED
from tests.test_resilience_supervisor import _tasks

kernel = build_kernel(KERNEL_CONFIG, seed=SEED)
graphs = GraphDatasetBuilder(kernel, seed=SEED)
graphs.grow_corpus(rounds=20)
SupervisedRunner(3).run_many(kernel, _tasks(graphs.corpus, 1))
pids = [child.pid for child in multiprocessing.active_children()]
print(*pids, flush=True)
os._exit(137)
"""


#: A parent that dies before its only worker is first scheduled: the
#: worker's first step is slowed so that it runs after the exit.
_ORPHANED_BEFORE_FIRST_POLL = """
import os, time
from repro import obs
from repro.execution import parallel

clear = obs.clear_registry


def slow_clear():
    clear()
    time.sleep(0.5)


obs.clear_registry = slow_clear
worker = parallel.WorkerProcess(parallel.worker_main, lambda job: job)
print(worker.process.pid, flush=True)
os._exit(137)
"""


def _assert_workers_exit_with(script, workers):
    """Run ``script``, which prints its worker pids and exits 137, and
    assert that every worker exits within :data:`WORKER_EXIT_DEADLINE`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        cwd=REPO_ROOT,
        env=env,
    )
    started = {}
    try:
        ready, _, _ = select.select([process.stdout], [], [], 120.0)
        assert ready, "the campaign subprocess never reported its workers"
        pids = [int(pid) for pid in process.stdout.readline().split()]
        assert len(pids) == workers
        # A worker already reaped gets no start time: never "running".
        stats = {pid: _proc_stat(pid) for pid in pids}
        started = {pid: stat and stat[19] for pid, stat in stats.items()}
        assert process.wait(timeout=60) == 137
        # A worker notices within one 0.5 s poll; the deadline only
        # absorbs scheduling delay. Workers that never notice fail here.
        deadline = time.monotonic() + WORKER_EXIT_DEADLINE
        running = _running(started)
        while running and time.monotonic() < deadline:
            time.sleep(0.05)
            running = _running(started)
        assert not running, (
            f"workers outlived their campaign process by "
            f"{WORKER_EXIT_DEADLINE:.0f} s: {running}"
        )
    finally:
        process.kill()
        process.wait()
        for pid in _running(started):
            os.kill(pid, signal.SIGKILL)
        process.stdout.close()


class TestSerialSupervision:
    def test_matches_plain_serial_runner(self, kernel, corpus):
        tasks = _tasks(corpus, 4)
        plain = SerialCTRunner().run_many(kernel, tasks)
        supervised = SupervisedRunner(0, SupervisionPolicy()).run_many(
            kernel, tasks
        )
        assert _digests(supervised) == _digests(plain)

    def test_transient_fault_is_retried(self, kernel, corpus):
        tasks = _tasks(corpus, 3)
        plan = FaultPlan.parse("transient@1", seed=0)
        runner = SupervisedRunner(0, SupervisionPolicy(), plan)
        results = runner.run_many(kernel, tasks)
        plain = SerialCTRunner().run_many(kernel, tasks)
        assert _digests(results) == _digests(plain)
        assert runner.retries == 1
        assert runner.quarantined == 0
        # first retry charges one base backoff interval
        assert runner.backoff_seconds == pytest.approx(0.5)

    def test_poison_is_quarantined(self, kernel, corpus):
        tasks = _tasks(corpus, 3)
        plan = FaultPlan.parse("poison@1", seed=0)
        runner = SupervisedRunner(0, SupervisionPolicy(max_retries=2), plan)
        results = runner.run_many(kernel, tasks)
        assert results[1].failure == "quarantined"
        assert not results[1].completed
        assert results[0].completed and results[2].completed
        assert runner.quarantined == 1
        assert runner.retries == 2  # exhausted before quarantine
        # exponential backoff: 0.5 * (2**0 + 2**1)
        assert runner.backoff_seconds == pytest.approx(1.5)

    def test_hang_charges_timeout_and_retries(self, kernel, corpus):
        tasks = _tasks(corpus, 2)
        plan = FaultPlan.parse("hang@0", seed=0)
        runner = SupervisedRunner(0, SupervisionPolicy(), plan)
        results = runner.run_many(kernel, tasks)
        assert all(result.completed for result in results)
        assert runner.timeouts == 1
        assert runner.retries == 1

    def test_crash_counts_worker_death_and_can_engage_fallback(
        self, kernel, corpus
    ):
        tasks = _tasks(corpus, 2)
        plan = FaultPlan.parse("crash@0", seed=0)
        runner = SupervisedRunner(
            0, SupervisionPolicy(max_worker_deaths=0), plan
        )
        results = runner.run_many(kernel, tasks)
        assert all(result.completed for result in results)
        assert runner.worker_deaths == 1
        assert runner.fallbacks == 1

    def test_counters_reach_the_metrics_registry(self, kernel, corpus):
        tasks = _tasks(corpus, 3)
        plan = FaultPlan.parse("poison@0,hang@1", seed=0)
        registry = obs.set_registry(obs.MetricsRegistry())
        try:
            runner = SupervisedRunner(0, SupervisionPolicy(max_retries=1), plan)
            runner.run_many(kernel, tasks)
        finally:
            summary = registry.close()
            obs.clear_registry()
        counters = summary["counters"]
        assert counters["resilience.quarantined"] == 1
        assert counters["resilience.timeouts"] == 1
        assert counters["resilience.retries"] >= 2

    def test_state_round_trip_preserves_indices_and_counters(
        self, kernel, corpus
    ):
        plan = FaultPlan.parse("transient@2", seed=0)
        first = SupervisedRunner(0, SupervisionPolicy(), plan)
        first.run_many(kernel, _tasks(corpus, 2))
        assert first.retries == 0  # fault index 2 not reached yet
        state = first.state_dict()

        second = SupervisedRunner(0, SupervisionPolicy(), plan)
        second.load_state(state)
        second.run_many(kernel, _tasks(corpus, 1, seed=7))
        # the restored runner continues campaign-global indices: its first
        # task is index 2, which the plan faults
        assert second.retries == 1
        assert second.summary()["retries"] == 1


class TestPoolSupervision:
    def test_pool_matches_serial_without_faults(self, kernel, corpus):
        tasks = _tasks(corpus, 4)
        plain = SerialCTRunner().run_many(kernel, tasks)
        runner = SupervisedRunner(2, SupervisionPolicy())
        try:
            results = runner.run_many(kernel, tasks)
        finally:
            runner.close()
        assert _digests(results) == _digests(plain)

    def test_real_worker_crash_is_retried(self, kernel, corpus):
        tasks = _tasks(corpus, 3)
        plan = FaultPlan.parse("crash@0", seed=0)
        runner = SupervisedRunner(
            2, SupervisionPolicy(timeout_seconds=30, max_worker_deaths=5), plan
        )
        try:
            results = runner.run_many(kernel, tasks)
        finally:
            runner.close()
        plain = SerialCTRunner().run_many(kernel, tasks)
        assert _digests(results) == _digests(plain)
        assert runner.worker_deaths == 1
        assert runner.retries == 1
        assert runner.fallbacks == 0

    def test_real_worker_hang_times_out_and_recovers(self, kernel, corpus):
        tasks = _tasks(corpus, 3)
        plan = FaultPlan.parse("hang@1", seed=0)
        runner = SupervisedRunner(
            2,
            SupervisionPolicy(timeout_seconds=0.5, max_worker_deaths=5),
            plan,
        )
        try:
            results = runner.run_many(kernel, tasks)
        finally:
            runner.close()
        plain = SerialCTRunner().run_many(kernel, tasks)
        assert _digests(results) == _digests(plain)
        assert runner.timeouts >= 1
        assert runner.retries >= 1

    def test_repeated_deaths_fall_back_to_serial(self, kernel, corpus):
        tasks = _tasks(corpus, 4)
        plan = FaultPlan.parse("crash:1.0", seed=0)
        runner = SupervisedRunner(
            2,
            SupervisionPolicy(timeout_seconds=30, max_worker_deaths=1),
            plan,
        )
        registry = obs.MetricsRegistry(sink=obs.MemorySink())
        try:
            with obs.use_registry(registry):
                results = runner.run_many(kernel, tasks)
        finally:
            runner.close()
        plain = SerialCTRunner().run_many(kernel, tasks)
        # every first attempt crashes, every retry succeeds — and after
        # the death budget is blown the remainder runs in-process
        assert _digests(results) == _digests(plain)
        # each CT is counted once, whether a worker ran it or the fallback
        assert registry.counter("execution.runs").value == len(tasks)
        assert runner.fallbacks == 1
        assert runner.worker_deaths == len(tasks)
        assert runner.quarantined == 0

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads worker states from /proc"
    )
    def test_workers_do_not_outlive_a_killed_campaign(self):
        """Every worker forked later holds a copy of the campaign's end
        of its siblings' pipes, so a campaign that dies without closing
        them never EOFs anybody: workers must notice the re-parenting.

        The test waits on the workers themselves. It used to wait for
        EOF on the campaign's stdout, which the workers inherit, for
        3 s; that also waits on any other process holding the pipe and
        on however long a loaded host takes to schedule the exits."""
        _assert_workers_exit_with(_DYING_CAMPAIGN, workers=3)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads worker states from /proc"
    )
    def test_a_worker_orphaned_before_its_first_poll_exits(self):
        """Regression: a worker read its parent's pid with ``getppid()``
        after the fork, so one first scheduled after its parent died
        recorded the re-parented pid and polled forever."""
        _assert_workers_exit_with(_ORPHANED_BEFORE_FIRST_POLL, workers=1)
