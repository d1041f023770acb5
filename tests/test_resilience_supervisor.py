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

    def test_workers_do_not_outlive_a_killed_campaign(self):
        """Every worker forked later holds a copy of the campaign's end
        of its siblings' pipes, so a campaign that dies without closing
        them never EOFs anybody: workers must notice the re-parenting."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-c", _DYING_CAMPAIGN],
            stdout=subprocess.PIPE,
            cwd=REPO_ROOT,
            env=env,
        )
        pids = []
        try:
            ready, _, _ = select.select([process.stdout], [], [], 120.0)
            assert ready, "the campaign subprocess never reported its workers"
            pids = [int(pid) for pid in process.stdout.readline().split()]
            assert len(pids) == 3
            assert process.wait(timeout=60) == 137
            # The workers inherited this pipe's write end: it reaches EOF
            # only once the last of them has exited.
            ready, _, _ = select.select([process.stdout], [], [], 3.0)
            assert ready and os.read(process.stdout.fileno(), 1) == b"", (
                f"workers {pids} outlived their campaign process"
            )
        finally:
            process.kill()
            process.wait()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            process.stdout.close()
