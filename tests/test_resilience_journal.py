"""Crash-safe campaigns: durable journal, atomic checkpoints, exact resume.

The acceptance bar (see docs/ROBUSTNESS.md): a campaign interrupted by
SIGKILL at an arbitrary point and then resumed produces a
:class:`~repro.core.mlpct.CampaignResult` byte-identical to an
uninterrupted run's. Both kill paths are exercised — a real SIGKILL from
a parent process at a racy moment, and the deterministic ``die@N`` fault
that drops the process at an exact task dispatch.
"""

import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.core.continuous import ContinuousConfig, run_continuous
from repro.core.mlpct import MLPCTExplorer, run_campaign
from repro.core.strategies import make_strategy
from repro.errors import CheckpointError, JournalError
from repro.kernel import EvolutionConfig, build_kernel, evolve_kernel
from repro.ml.pic import PICConfig, PICModel
from repro.resilience.atomic import canonical_json
from repro.resilience.faults import DIE_EXIT_STATUS
from repro.resilience.journal import (
    CampaignJournal,
    ContinuousJournal,
    _cti_stream_digest,
    campaign_result_to_dict,
    outcome_to_dict,
    reset_journal,
)
from repro.resilience.log import JOURNAL_SCHEMA, SealedLog

from tests._journal_driver import KERNEL_CONFIG, NUM_CTIS, SEED, build_campaign

pytestmark = pytest.mark.slow  # CI recovery suite: run via `-m slow`

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER = os.path.join(REPO_ROOT, "tests", "_journal_driver.py")


def _result_json(result) -> str:
    return canonical_json(campaign_result_to_dict(result))


def _outcomes_json(run) -> str:
    return canonical_json([outcome_to_dict(o) for o in run.outcomes])


def _journal_records(path):
    """Parse the journal's committed records (a torn tail is skipped)."""
    records = []
    with open(path, "rb") as handle:
        for line in handle.read().split(b"\n"):
            if not line:
                continue
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                continue
    return records


def _copy_campaign_files(src_path: str, dst_dir) -> str:
    """Copy a journal and every sidecar into ``dst_dir``."""
    directory = os.path.dirname(src_path)
    name = os.path.basename(src_path)
    for entry in os.listdir(directory):
        if entry == name or entry.startswith(name + "."):
            shutil.copy(
                os.path.join(directory, entry), os.path.join(str(dst_dir), entry)
            )
    return os.path.join(str(dst_dir), name)


@pytest.fixture(scope="module")
def completed_campaign(tmp_path_factory):
    """A fully journaled campaign: (journal path, canonical result JSON)."""
    directory = tmp_path_factory.mktemp("journal")
    path = str(directory / "campaign.journal")
    explorer, ctis = build_campaign()
    journal = CampaignJournal(path)
    result = run_campaign(explorer, ctis, journal=journal)
    journal.close()
    return path, _result_json(result)


class TestJournalFile:
    def test_torn_tail_is_truncated(self, tmp_path):
        path = str(tmp_path / "t.journal")
        handle = SealedLog(path)
        handle.append({"c": "x", "kind": "header", "n": 1})
        handle.append({"c": "x", "kind": "cti", "index": 0})
        handle.close()
        with open(path, "ab") as raw:
            raw.write(b'{"c": "x", "kind": "cti", "ind')  # crash mid-append
        reopened = SealedLog(path)
        assert len(reopened.records) == 2
        reopened.close()
        # the file itself was truncated back to its valid prefix
        with open(path, "rb") as raw:
            assert not raw.read().rstrip(b"\n").endswith(b'"ind')

    def test_interior_corruption_is_refused(self, tmp_path):
        path = str(tmp_path / "t.journal")
        handle = SealedLog(path)
        for index in range(3):
            handle.append({"c": "x", "kind": "cti", "index": index})
        handle.close()
        with open(path, "rb") as raw:
            lines = raw.read().splitlines(keepends=True)
        lines[0] = lines[0].replace(b'"index":0', b'"index":9')  # bit rot
        with open(path, "wb") as raw:
            raw.writelines(lines)
        with pytest.raises(JournalError, match="corrupt journal record"):
            SealedLog(path)

    def test_records_survive_reopen(self, tmp_path):
        path = str(tmp_path / "t.journal")
        handle = SealedLog(path)
        handle.append({"c": "x", "kind": "header", "payload": [1.5, "a"]})
        handle.close()
        reopened = SealedLog(path)
        assert reopened.records == [
            {"c": "x", "kind": "header", "payload": [1.5, "a"]}
        ]
        reopened.close()


class TestCampaignJournal:
    def test_journaled_run_matches_plain_run(self, tmp_path, completed_campaign):
        _, journaled_json = completed_campaign
        explorer, ctis = build_campaign()
        plain = run_campaign(explorer, ctis)
        assert journaled_json == _result_json(plain)

    def test_resume_of_completed_campaign_re_explores_nothing(
        self, completed_campaign
    ):
        path, expected = completed_campaign
        before = len(_journal_records(path))
        explorer, ctis = build_campaign()
        journal = CampaignJournal(path)
        result = run_campaign(explorer, ctis, journal=journal)
        journal.close()
        assert _result_json(result) == expected
        assert len(_journal_records(path)) == before  # nothing re-journaled

    def test_mismatched_cti_stream_is_refused(self, completed_campaign, tmp_path):
        path = _copy_campaign_files(completed_campaign[0], tmp_path)
        explorer, ctis = build_campaign()
        journal = CampaignJournal(path)
        try:
            with pytest.raises(JournalError, match="different campaign"):
                run_campaign(explorer, ctis[: NUM_CTIS - 2], journal=journal)
        finally:
            journal.close()

    def test_corrupt_checkpoint_is_refused(self, completed_campaign, tmp_path):
        path = _copy_campaign_files(completed_campaign[0], tmp_path)
        ckpt = CampaignJournal(path).checkpoint_path("PCT")
        with open(ckpt, "r+b") as handle:
            data = handle.read()
            handle.seek(0)
            handle.write(data[: len(data) // 2])
            handle.truncate()
        explorer, ctis = build_campaign()
        journal = CampaignJournal(path)
        try:
            with pytest.raises(CheckpointError):
                run_campaign(explorer, ctis, journal=journal)
        finally:
            journal.close()

    def test_uncommitted_journal_tail_is_dropped(
        self, completed_campaign, tmp_path
    ):
        path = _copy_campaign_files(completed_campaign[0], tmp_path)
        # Simulate a crash between journal append and checkpoint: a CTI
        # record exists that the checkpoint never committed.
        handle = SealedLog(path)
        surplus = dict(
            next(
                r
                for r in reversed(handle.records)
                if r.get("kind") == "cti"
            )
        )
        surplus["index"] = NUM_CTIS  # one past the committed stream
        handle.append(surplus)
        handle.close()
        explorer, ctis = build_campaign()
        journal = CampaignJournal(path)
        result = run_campaign(explorer, ctis, journal=journal)
        journal.close()
        assert _result_json(result) == completed_campaign[1]
        # the surplus record was dropped from the rewritten journal
        kinds = [
            r["index"] for r in _journal_records(path) if r.get("kind") == "cti"
        ]
        assert kinds == list(range(NUM_CTIS))

    def test_fold_prediction_digest_handles_partial_scores(self):
        # The scoring engine materialises only what the consumer asked
        # for: strategies get booleans, rankers get probabilities. The
        # audit digest must accept either side being absent.
        from repro.resilience.journal import fold_prediction_digest

        digest = fold_prediction_digest("seed", None, [True, False])
        assert digest == fold_prediction_digest("seed", None, [True, False])
        assert digest != fold_prediction_digest("seed", None, [False, False])
        assert digest != fold_prediction_digest("seed", 0.5, [True, False])
        fold_prediction_digest("seed", 0.5, None)  # proba-only consumers

    def test_result_digest_two_thread_form_is_pinned(self):
        # Journals and receipts written before the N-thread fix must keep
        # verifying: the two-thread digest is byte-for-byte the old one.
        from repro.execution.trace import BugEvent, ConcurrentResult
        from repro.resilience.journal import result_digest

        result = ConcurrentResult(
            covered_blocks=({3, 1, 2}, {7, 5}),
            bug_events=[
                BugEvent(step=4, thread=1, iid=9, block_id=7, kind="check")
            ],
            num_switches=2,
            hints_enforced=1,
            steps=11,
        )
        assert result_digest(result) == (
            "ab79f29fb6ca11e6e04d51bf317142409212246bd53eb69fb0d12398423292c1"
        )

    def test_result_digest_failed_outcomes_are_pinned(self):
        # A hang and a quarantined result, from the two producers that
        # record them, keep their digests: "completed" and "failure" are
        # both hashed and must stay consistent.
        from dataclasses import replace

        from repro.execution.parallel import CTTask, _run_task
        from repro.resilience.journal import result_digest
        from repro.resilience.supervisor import _quarantined_result
        from tests._oracle_kernels import three_thread_racy_kernel

        kernel, programs, _ = three_thread_racy_kernel()
        task = CTTask.build(programs, ())
        hung = _run_task(kernel, replace(task, max_steps=5))
        assert hung.failure == "hang" and hung.hung and not hung.completed
        assert hung.covered_blocks[0] and not hung.deadlocked
        quarantined = _quarantined_result(task)
        assert quarantined.failure == "quarantined"
        assert not quarantined.completed and not quarantined.deadlocked
        assert result_digest(hung) == (
            "5d7bb6de8ea9c87b99091ddd544ff8b1b68a78b82f78efbb914270b8a4b30b7b"
        )
        assert result_digest(quarantined) == (
            "15badca6eb9bbfa24bdc39cc7a951c1bd10e0147fb5bbe98ec6bbd25c642c87e"
        )

    def test_result_digest_covers_every_thread(self):
        # Wiping thread 2's coverage of a 3-thread result must change the
        # journal's digest and the fleet receipt's.
        from dataclasses import replace

        from repro.execution.concurrent import run_concurrent
        from repro.fleet.receipts import execute_result_digest
        from repro.resilience.journal import result_digest
        from tests._oracle_kernels import three_thread_racy_kernel

        kernel, programs, _ = three_thread_racy_kernel()
        result = run_concurrent(kernel, programs)
        assert len(result.covered_blocks) == 3 and result.covered_blocks[2]
        tampered = replace(
            result, covered_blocks=result.covered_blocks[:2] + (set(),)
        )
        assert result_digest(tampered) != result_digest(result)
        assert execute_result_digest([tampered]) != execute_result_digest(
            [result]
        )

    def test_mlpct_journaled_run_matches_plain_and_resumes(
        self, dataset_builder, tiny_model, tmp_path
    ):
        """The MLPCT audit path (scored-prediction digests) must journal
        and resume like PCT does."""
        from repro import rng as rngmod
        from repro.core.mlpct import ExplorationConfig, MLPCTExplorer
        from repro.core.strategies import make_strategy

        config = ExplorationConfig(
            execution_budget=2, proposal_pool=6, inference_cap=20
        )
        ctis = dataset_builder.corpus.sample_pairs(rngmod.make_rng(3), 2)

        def build_explorer():
            return MLPCTExplorer(
                dataset_builder,
                predictor=tiny_model,
                strategy=make_strategy("S1"),
                config=config,
                seed=0,
            )

        plain = run_campaign(build_explorer(), ctis)
        path = str(tmp_path / "mlpct.journal")
        journal = CampaignJournal(path)
        journaled = run_campaign(build_explorer(), ctis, journal=journal)
        journal.close()
        assert _result_json(journaled) == _result_json(plain)

        reopened = CampaignJournal(path)
        resumed = run_campaign(build_explorer(), ctis, journal=reopened)
        reopened.close()
        assert _result_json(resumed) == _result_json(plain)
        scored = [
            r["audit"]["scored"]
            for r in _journal_records(path)
            if r.get("kind") == "cti"
        ]
        assert all(count > 0 for count in scored)

    def test_reset_journal_removes_sidecars(self, completed_campaign, tmp_path):
        path = _copy_campaign_files(completed_campaign[0], tmp_path)
        assert os.path.exists(path + ".PCT.ckpt")
        reset_journal(path)
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".PCT.ckpt")


def _mlpct_campaign():
    """:func:`build_campaign`'s corpus, budgets and CTIs under MLPCT-S1
    with a seeded, untrained PIC (resuming only needs the same one)."""
    baseline, ctis = build_campaign()
    vocabulary = baseline.graphs.vocabulary
    model = PICModel(
        PICConfig(
            vocab_size=len(vocabulary),
            pad_id=vocabulary.pad_id,
            token_dim=8,
            hidden_dim=12,
            num_layers=2,
        ),
        seed=SEED,
    )
    explorer = MLPCTExplorer(
        baseline.graphs,
        predictor=model,
        strategy=make_strategy("S1"),
        config=baseline.config,
        seed=SEED,
    )
    return explorer, ctis


class _Interrupted(Exception):
    pass


class TestParentHeaders:
    """Journals written while an MLPCT explorer could carry a scoring
    cascade bind ``settings.cascade``: ``null`` for a run without one."""

    @pytest.fixture(scope="class")
    def reference(self):
        explorer, ctis = _mlpct_campaign()
        return _result_json(run_campaign(explorer, ctis))

    def _parent_journal(self, path: str, cascade) -> None:
        """Two committed CTIs under a hand-written parent-shaped header."""
        explorer, ctis = _mlpct_campaign()
        journal = CampaignJournal(path)
        commit = journal.record_cti

        def stop_after_two(label, index, plan, state):
            commit(label, index, plan, state)
            if index == 1:
                raise _Interrupted

        journal.record_cti = stop_after_two
        with pytest.raises(_Interrupted):
            run_campaign(explorer, ctis, journal=journal)
        journal.close()
        log = SealedLog(path)
        header = {
            "c": explorer.label,
            "kind": "header",
            "schema": JOURNAL_SCHEMA,
            "seed": SEED,
            "num_ctis": NUM_CTIS,
            "ctis": _cti_stream_digest(ctis),
            "settings": {
                "execution_budget": 3,
                "inference_cap": 1600,
                "proposal_pool": 6,
                "num_threads": 2,
                "irq": False,
                "memory_model": "sc",
                "cascade": cascade,
            },
        }
        log.rewrite(
            [header if r.get("kind") == "header" else r for r in log.records]
        )
        log.close()

    def test_null_cascade_header_resumes_to_the_same_result(
        self, tmp_path, reference
    ):
        path = str(tmp_path / "parent.journal")
        self._parent_journal(path, cascade=None)
        explorer, ctis = _mlpct_campaign()
        journal = CampaignJournal(path)
        resumed = run_campaign(explorer, ctis, journal=journal)
        journal.close()
        assert _result_json(resumed) == reference
        committed = [r for r in _journal_records(path) if r.get("kind") == "cti"]
        assert [r["index"] for r in committed] == list(range(NUM_CTIS))

    def test_cascade_threshold_header_is_refused(self, tmp_path):
        path = str(tmp_path / "parent.journal")
        self._parent_journal(path, cascade=0.42)
        explorer, ctis = _mlpct_campaign()
        journal = CampaignJournal(path)
        try:
            with pytest.raises(JournalError, match="cascade mismatch"):
                run_campaign(explorer, ctis, journal=journal)
        finally:
            journal.close()


class TestKillAndResume:
    def test_sigkill_mid_campaign_then_resume_is_byte_identical(self, tmp_path):
        journal_path = str(tmp_path / "campaign.journal")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, DRIVER, journal_path, "--sleep", "0.25"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 120
            interrupted = False
            while process.poll() is None and time.time() < deadline:
                committed = (
                    _journal_records(journal_path)
                    if os.path.exists(journal_path)
                    else []
                )
                if len(committed) >= 2:  # header + at least one CTI record
                    process.send_signal(signal.SIGKILL)
                    interrupted = True
                    break
                time.sleep(0.01)
            process.wait(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert interrupted, "driver finished before it could be killed"
        assert process.returncode == -signal.SIGKILL

        explorer, ctis = build_campaign()
        journal = CampaignJournal(journal_path)
        resumed = run_campaign(explorer, ctis, journal=journal)
        journal.close()

        reference_explorer, reference_ctis = build_campaign()
        reference = run_campaign(reference_explorer, reference_ctis)
        assert _result_json(resumed) == _result_json(reference)

    def test_die_fault_kills_at_exact_task_and_resume_is_byte_identical(
        self, tmp_path
    ):
        # Task indices run 3 per CTI; die@7 drops the process while
        # exploring CTI 2, after CTIs 0-1 committed.
        journal_path = str(tmp_path / "die.journal")
        context = multiprocessing.get_context("fork")
        child = context.Process(
            target=_run_dying_campaign, args=(journal_path, "die@7")
        )
        child.start()
        child.join(timeout=180)
        assert child.exitcode == DIE_EXIT_STATUS

        committed = [
            r for r in _journal_records(journal_path) if r.get("kind") == "cti"
        ]
        assert [r["index"] for r in committed] == [0, 1]

        disarmed = "die@1000000"  # same plan, death point never reached
        explorer, ctis = build_campaign(fault_spec=disarmed)
        journal = CampaignJournal(journal_path)
        resumed = run_campaign(explorer, ctis, journal=journal)
        journal.close()

        reference_explorer, reference_ctis = build_campaign(fault_spec=disarmed)
        reference = run_campaign(reference_explorer, reference_ctis)
        assert _result_json(resumed) == _result_json(reference)
        # supervised runs surface their (all-zero) resilience counters
        assert resumed.resilience is not None


def _run_dying_campaign(journal_path: str, fault_spec: str) -> None:
    explorer, ctis = build_campaign(fault_spec=fault_spec)
    journal = CampaignJournal(journal_path)
    run_campaign(explorer, ctis, journal=journal)
    journal.close()
    os._exit(0)  # unreachable when the die fault fires


# -- continuous testing -------------------------------------------------------


def _tiny_snowcat_config():
    from repro.core import ExplorationConfig, SnowcatConfig

    return SnowcatConfig(
        seed=17,
        corpus_rounds=50,
        dataset_ctis=4,
        train_interleavings=2,
        evaluation_interleavings=2,
        train_fraction=0.5,
        validation_fraction=0.25,
        pretrain_epochs=1,
        epochs=1,
        token_dim=12,
        hidden_dim=16,
        num_layers=1,
        exploration=ExplorationConfig(
            execution_budget=3, proposal_pool=6, inference_cap=40
        ),
    )


def _versions():
    base = build_kernel(KERNEL_CONFIG, seed=9)
    evolved = evolve_kernel(
        base, EvolutionConfig(version="v5.13", rebuild_fraction=0.2), seed=13
    )
    return [base, evolved]


def _pct_config():
    return ContinuousConfig(
        policy="pct", campaign_ctis=2, base=_tiny_snowcat_config()
    )


def _freeze_config():
    return ContinuousConfig(
        policy="freeze", campaign_ctis=2, base=_tiny_snowcat_config()
    )


def _run_continuous_child(journal_path: str, pause: float) -> None:
    """Child-process body for the continuous kill test: slow each
    version's campaign down so the parent can SIGKILL mid-version."""
    import repro.core.continuous as continuous_module

    real_run_campaign = continuous_module.run_campaign

    def paused_run_campaign(explorer, ctis, journal=None):
        time.sleep(pause)
        return real_run_campaign(explorer, ctis, journal=journal)

    continuous_module.run_campaign = paused_run_campaign
    journal = ContinuousJournal(journal_path)
    run_continuous(_versions(), _freeze_config(), journal=journal)
    os._exit(0)


class TestContinuousJournal:
    def test_pct_policy_journaled_matches_plain_and_resumes(self, tmp_path):
        versions = _versions()
        plain = run_continuous(versions, _pct_config())
        path = str(tmp_path / "continuous.journal")
        journal = ContinuousJournal(path)
        journaled = run_continuous(versions, _pct_config(), journal=journal)
        journal.close()
        assert _outcomes_json(journaled) == _outcomes_json(plain)

        resumed_journal = ContinuousJournal(path)
        resumed = run_continuous(
            versions, _pct_config(), journal=resumed_journal
        )
        resumed_journal.close()
        assert _outcomes_json(resumed) == _outcomes_json(plain)

    def test_config_mismatch_is_refused(self, tmp_path):
        versions = _versions()
        path = str(tmp_path / "continuous.journal")
        journal = ContinuousJournal(path)
        run_continuous(versions, _pct_config(), journal=journal)
        journal.close()
        other = ContinuousConfig(
            policy="pct", campaign_ctis=3, base=_tiny_snowcat_config()
        )
        reopened = ContinuousJournal(path)
        try:
            with pytest.raises(JournalError, match="different"):
                run_continuous(versions, other, journal=reopened)
        finally:
            reopened.close()

    def test_sigkill_mid_run_then_resume_restores_model_exactly(self, tmp_path):
        """Freeze policy: v0 trains a model; the checkpoint must carry it
        (with vocabulary and checksum) across the kill so the resumed v1
        campaign is byte-identical."""
        path = str(tmp_path / "continuous.journal")
        context = multiprocessing.get_context("fork")
        child = context.Process(target=_run_continuous_child, args=(path, 0.5))
        child.start()
        deadline = time.time() + 300
        interrupted = False
        try:
            while child.is_alive() and time.time() < deadline:
                versions_committed = [
                    r
                    for r in (_journal_records(path) if os.path.exists(path) else [])
                    if r.get("kind") == "version"
                ]
                if versions_committed:
                    os.kill(child.pid, signal.SIGKILL)
                    interrupted = True
                    break
                time.sleep(0.02)
            child.join(timeout=120)
        finally:
            if child.is_alive():
                child.terminate()
                child.join()
        assert interrupted, "child finished before it could be killed"
        assert child.exitcode == -signal.SIGKILL

        journal = ContinuousJournal(path)
        resumed = run_continuous(_versions(), _freeze_config(), journal=journal)
        journal.close()
        reference = run_continuous(_versions(), _freeze_config())
        assert _outcomes_json(resumed) == _outcomes_json(reference)
        assert len(resumed.outcomes) == 2

        # A corrupted model sidecar is detected by its checksum, not
        # silently loaded into a franken-model.
        sidecar = ContinuousJournal(path).model_path(1)
        assert os.path.exists(sidecar)
        with open(sidecar, "r+b") as handle:
            data = handle.read()
            handle.seek(0)
            handle.write(data[: len(data) - 16])
            handle.truncate()
        corrupt = ContinuousJournal(path)
        try:
            with pytest.raises(CheckpointError):
                run_continuous(_versions(), _freeze_config(), journal=corrupt)
        finally:
            corrupt.close()
