"""Tests of :mod:`repro.learn`: the continuous-learning lifecycle.

The load-bearing claims: (1) label ingestion is exactly-once — content-
addressed dedup plus per-journal watermarks survive restarts, torn
journal tails, and shrunk journals; (2) one worker cycle is journal-
resumable: SIGKILL at any stage boundary resumes to the identical
candidate checkpoint, gate verdict, and registry state as an
uninterrupted run; (3) a failed gate never reaches the registry; (4)
with the loop disabled, campaigns are byte-identical to a world without
the subsystem; (5) a live hot-swap leaves an auditable boundary in the
campaign result that survives serialization and can drive auto-rollback.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.mlpct import run_campaign
from repro.errors import JournalError, ServeError
from repro.learn import (
    FineTuneWorker,
    LabelStore,
    LabelTailer,
    label_id,
    maybe_rollback,
)
from repro.ml.pic import PICModel
from repro.obs.export import render_learn_top
from repro.resilience.journal import (
    CampaignJournal,
    campaign_result_from_dict,
    campaign_result_to_dict,
)
from repro.resilience.log import SealedLog, read_log_tolerant
from repro.serve import InProcessServer, ModelRegistry

from tests._learn_driver import LEARN_CONFIG, NUM_CTIS, build_environment

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER = os.path.join(REPO_ROOT, "tests", "_learn_driver.py")


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """One small lifecycle environment, shared read-only by the module.

    Tests that mutate registry or store state build their own copies in
    their own tmp dirs (``_fresh_worker``); this fixture's registry and
    store are never written past construction.
    """
    root = str(tmp_path_factory.mktemp("learn-env"))
    snowcat, registry, store = build_environment(root)
    yield SimpleNamespace(
        root=root,
        snowcat=snowcat,
        registry=registry,
        store=store,
        journal=os.path.join(root, "campaign.journal"),
    )
    store.close()


def _fresh_worker(env, tmp_path, **overrides):
    """A worker against its own registry + store, seeded from ``env``."""
    registry = ModelRegistry(str(tmp_path / "registry"))
    registry.publish(env.snowcat.model, version="base", activate=True)
    store = LabelStore(str(tmp_path / "learn"))
    LabelTailer(store, [env.journal]).poll()
    config = replace(LEARN_CONFIG, **overrides) if overrides else LEARN_CONFIG
    worker = FineTuneWorker(
        str(tmp_path / "learn"),
        store,
        registry,
        env.snowcat,
        config=config,
    )
    return worker, registry, store


# -- label ingestion ---------------------------------------------------------


class TestLabelStore:
    def test_ingest_is_exactly_once(self, env, tmp_path):
        store = LabelStore(str(tmp_path / "learn"))
        tailer = LabelTailer(store, [env.journal])
        added = tailer.poll()
        assert added > 0 and store.count == added
        records, torn = read_log_tolerant(env.journal)
        assert not torn
        assert store.watermark(env.journal) == len(records)
        # A second poll over the same journal ingests nothing.
        assert tailer.poll() == 0
        # Labels are content-addressed: every id is unique.
        ids = [record["id"] for record in store.labels]
        assert len(set(ids)) == len(ids)
        for record in store.labels:
            assert record["id"] == label_id(record)
        # Reopening the store replays the same state from disk...
        store.close()
        reopened = LabelStore(str(tmp_path / "learn"))
        assert reopened.count == added
        assert reopened.watermark(env.journal) == len(records)
        # ...and the watermark still suppresses re-ingestion.
        assert LabelTailer(reopened, [env.journal]).poll() == 0
        reopened.close()

    def test_label_id_is_content_addressed(self):
        payload = {"sti": [1, 2], "hints": [[0, 3]], "covered": [[5], [7]]}
        assert label_id(payload) == label_id(dict(payload))
        changed = dict(payload, covered=[[5], [8]])
        assert label_id(changed) != label_id(payload)

    def test_unknown_record_kind_is_rejected(self, tmp_path):
        root = tmp_path / "learn"
        root.mkdir()
        handle = SealedLog(str(root / "labels.jsonl"))
        handle.append({"kind": "bogus"})
        handle.close()
        with pytest.raises(JournalError, match="unknown record kind"):
            LabelStore(str(root))

    def test_tailer_tolerates_live_torn_tail(self, env, tmp_path):
        # A campaign crashed (or is still writing) mid-append: the tailer
        # must read the valid prefix without mutating the file — the
        # appender still owns it.
        torn_path = str(tmp_path / "campaign.journal")
        with open(env.journal, "rb") as src:
            blob = src.read()
        with open(torn_path, "wb") as dst:
            dst.write(blob + b'{"c": "PCT", "kind": "cti", "ind')
        records, torn = read_log_tolerant(torn_path)
        assert torn
        clean_records, _ = read_log_tolerant(env.journal)
        assert len(records) == len(clean_records)
        store = LabelStore(str(tmp_path / "learn"))
        added = LabelTailer(store, [torn_path]).poll()
        assert added == env.store.count
        store.close()
        with open(torn_path, "rb") as handle:
            assert handle.read() == blob + b'{"c": "PCT", "kind": "cti", "ind'

    def test_shrunk_journal_yields_nothing(self, env, tmp_path):
        # A resumed campaign's rewrite() dropped an uncommitted tail: the
        # journal is momentarily shorter than the watermark. The redone
        # records are deterministically identical, so the tailer just
        # waits for the journal to catch back up.
        store = LabelStore(str(tmp_path / "learn"))
        LabelTailer(store, [env.journal]).poll()
        before = store.watermark(env.journal)
        records, _ = read_log_tolerant(env.journal)
        short_path = str(tmp_path / "short.journal")
        shrunk = SealedLog(short_path)
        for record in records[:-1]:
            shrunk.append(
                {k: v for k, v in record.items() if k != "sum"}
            )
        shrunk.close()
        # Point the same watermark at the shrunk copy.
        store._watermarks[os.path.abspath(short_path)] = before
        assert LabelTailer(store, [short_path]).poll() == 0
        assert store.watermark(short_path) == before
        store.close()


# -- the worker cycle --------------------------------------------------------


class TestWorkerCycle:
    def test_cycle_promotes_and_goes_idle(self, env, tmp_path):
        worker, registry, store = _fresh_worker(env, tmp_path)
        try:
            summary = worker.run_once()
            assert summary is not None
            assert summary["outcome"] == "promoted"
            assert summary["candidate"] == "ft-c1"
            assert summary["examples"] > 0 and summary["replay"] > 0
            assert (
                summary["candidate_ap"]
                >= summary["active_ap"] + LEARN_CONFIG.min_gain
            )
            assert registry.active_version == "ft-c1"
            # The journal holds exactly one record per stage, in order.
            kinds = [record["kind"] for record in worker.journal.records]
            assert kinds == ["cycle", "trained", "gate", "promoted"]
            # The cycle record pins the training window as explicit ids.
            start = worker.journal.records[0]
            assert start["window"] == [r["id"] for r in store.labels]
            assert start["base"] == "base"
            # Status heartbeat + `repro top` rendering reflect the outcome.
            status = json.loads(open(worker.status_path).read())
            assert status["stage"] == "promoted"
            assert status["active_version"] == "ft-c1"
            rendered = render_learn_top(worker.root)
            assert "promoted" in rendered and "ft-c1" in rendered
            # No fresh labels since the cycle: the next call idles.
            assert worker.run_once() is None
            status = json.loads(open(worker.status_path).read())
            assert status["stage"] == "idle"
        finally:
            worker.close()
            store.close()

    def test_worker_requires_an_active_base(self, env, tmp_path):
        registry = ModelRegistry(str(tmp_path / "registry"))  # empty
        store = LabelStore(str(tmp_path / "learn"))
        LabelTailer(store, [env.journal]).poll()
        worker = FineTuneWorker(
            str(tmp_path / "learn"), store, registry, env.snowcat,
            config=LEARN_CONFIG,
        )
        try:
            with pytest.raises(ServeError, match="active base model"):
                worker.run_once()
        finally:
            worker.close()
            store.close()

    def test_failed_gate_never_reaches_the_registry(self, env, tmp_path):
        # min_gain=10.0 is the CI lever: no candidate can beat its base
        # by 10 AP, so the gate must fail and quarantine.
        worker, registry, store = _fresh_worker(env, tmp_path, min_gain=10.0)
        try:
            summary = worker.run_once()
            assert summary is not None and summary["outcome"] == "quarantined"
            assert registry.active_version == "base"
            assert [r.version for r in registry.versions()] == ["base"]
            report_path = os.path.join(
                worker.root, "quarantine", "ft-c1.json"
            )
            report = json.loads(open(report_path).read())
            assert report["passed"] is False
            assert report["min_gain"] == 10.0
            # The candidate checkpoint stays on disk for post-mortem.
            assert os.path.exists(worker.candidate_path("ft-c1"))
        finally:
            worker.close()
            store.close()


# -- byte identity with the loop disabled ------------------------------------


class TestByteIdentity:
    def test_loop_disabled_campaign_is_byte_identical(self, env, tmp_path):
        ctis = env.snowcat.cti_stream(NUM_CTIS, "identity-check")
        plain = env.snowcat.pct_explorer()
        capturing = env.snowcat.pct_explorer()
        capturing.capture_labels = True
        journal_path = str(tmp_path / "plain.journal")
        journal = CampaignJournal(journal_path)
        try:
            result_plain = run_campaign(plain, ctis, journal=journal)
        finally:
            journal.close()
        result_capturing = run_campaign(capturing, ctis)
        # Capturing changes nothing about the campaign itself...
        assert campaign_result_to_dict(result_plain) == campaign_result_to_dict(
            result_capturing
        )
        # ...and with the loop disabled, neither the result nor the
        # journal mention the subsystem at all.
        assert "swaps" not in campaign_result_to_dict(result_plain)
        with open(journal_path, "rb") as handle:
            blob = handle.read()
        assert b'"labels"' not in blob and b'"swaps"' not in blob

    def test_registry_load_threads_the_callers_seed(self, env, tmp_path):
        # The seed only feeds exploration RNG state, never weights: a
        # loaded model predicts byte-identically to the published one
        # regardless of which seed the caller threads through.
        registry = ModelRegistry(str(tmp_path / "registry"))
        registry.publish(env.snowcat.model, version="base", activate=True)
        graphs = [ex.graph for ex in env.snowcat.splits.evaluation[:3]]
        assert graphs
        for seed in (0, 7):
            loaded = registry.load("base", seed=seed)
            for graph in graphs:
                np.testing.assert_array_equal(
                    loaded.predict_proba(graph),
                    env.snowcat.model.predict_proba(graph),
                )


# -- live hot-swap bookkeeping -----------------------------------------------


class _SwapAt:
    """Heartbeat that hot-swaps the backend at a fixed CTI count —
    deterministic stand-in for an operator running ``repro serve swap``
    mid-campaign."""

    def __init__(self, backend, model, version, at):
        self.backend = backend
        self.model = model
        self.version = version
        self.at = at
        self.swapped = False

    def begin(self, label, total, done=0):
        pass

    def update(self, done, races, executions):
        if not self.swapped and done >= self.at:
            self.backend.swap_model(self.model, self.version)
            self.swapped = True
        return False

    def close(self):
        pass


class TestHotSwap:
    def test_swap_boundary_is_recorded_and_serialized(self, env, tmp_path):
        model = env.snowcat.model
        other = PICModel(model.config, seed=99)  # untrained: differs
        server = InProcessServer(model, version="base")
        heartbeat = _SwapAt(server, other, "ft-v2", at=2)
        explorer = env.snowcat.mlpct_explorer(backend=server)
        try:
            result = env.snowcat.run_campaign(
                explorer, 4, "swap-test", heartbeat=heartbeat
            )
        finally:
            server.close()
        assert heartbeat.swapped
        assert len(result.swaps) == 1
        swap = result.swaps[0]
        assert swap["previous"] == "base" and swap["version"] == "ft-v2"
        total = len(result.history)
        assert 0 < swap["execution_index"] < total
        deltas = result.swap_deltas()
        assert len(deltas) == 1
        delta = deltas[0]
        assert delta["before_executions"] + delta["after_executions"] == total
        boundary = int(swap["execution_index"])
        assert delta["before_rate"] == pytest.approx(
            result.history[boundary - 1][1] / boundary
        )
        # The boundary survives result serialization round-trips — it is
        # part of the campaign's durable record.
        payload = campaign_result_to_dict(result)
        assert payload["swaps"] == result.swaps
        restored = campaign_result_from_dict(payload)
        assert restored.swaps == result.swaps
        assert restored.swap_deltas() == deltas
        # ...and the explorer checkpoints it, so journal resumes keep it.
        state = explorer.state_dict()
        assert state["swaps"] == result.swaps

    def test_maybe_rollback_on_live_regression(self, env, tmp_path):
        registry = ModelRegistry(str(tmp_path / "registry"))
        registry.publish(env.snowcat.model, version="base", activate=True)
        registry.publish(env.snowcat.model, version="ft-v2", activate=True)
        assert registry.active_version == "ft-v2"

        def result_with(deltas):
            return SimpleNamespace(swap_deltas=lambda: deltas)

        regression = {
            "previous": "base",
            "version": "ft-v2",
            "before_executions": 40,
            "after_executions": 40,
            "before_rate": 2.0,
            "after_rate": 0.2,
        }
        # No swaps, no verdict; mild dips and empty sides never roll back.
        assert maybe_rollback(registry, result_with([])) is None
        assert (
            maybe_rollback(
                registry, result_with([dict(regression, after_rate=1.8)])
            )
            is None
        )
        assert (
            maybe_rollback(
                registry, result_with([dict(regression, after_executions=0)])
            )
            is None
        )
        assert registry.active_version == "ft-v2"
        # A real regression (rate fell below tolerance * before) does.
        record = maybe_rollback(registry, result_with([regression]))
        assert record is not None and record.version == "base"
        assert registry.active_version == "base"


# -- SIGKILL resume drill ----------------------------------------------------


@pytest.mark.slow
class TestKillAndResume:
    def _run_driver(self, root, kill_at=None):
        env_vars = dict(os.environ)
        env_vars["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env_vars["PYTHONPATH"]
            if env_vars.get("PYTHONPATH")
            else ""
        )
        command = [sys.executable, DRIVER, str(root)]
        if kill_at:
            command += ["--kill-at", kill_at]
        return subprocess.run(
            command, env=env_vars, capture_output=True, text=True, timeout=600
        )

    def test_sigkill_at_stage_boundaries_resumes_identically(self, tmp_path):
        control = self._run_driver(tmp_path / "control")
        assert control.returncode == 0, control.stderr
        expected = json.loads(control.stdout.strip().splitlines()[-1])
        assert expected["summary"]["outcome"] == "promoted"

        drill_root = tmp_path / "drill"
        for stage in ("cycle", "trained", "gate"):
            killed = self._run_driver(drill_root, kill_at=stage)
            assert killed.returncode == -signal.SIGKILL, (
                f"driver survived --kill-at {stage}: {killed.stderr}"
            )
        resumed = self._run_driver(drill_root)
        assert resumed.returncode == 0, resumed.stderr
        actual = json.loads(resumed.stdout.strip().splitlines()[-1])
        # Candidate checkpoint content, gate verdict, and registry state
        # all match the uninterrupted control run exactly.
        assert actual == expected
        # The worker journal converged on one record per stage — resumes
        # never duplicated work.
        records, torn = read_log_tolerant(
            str(drill_root / "learn" / "learn.journal")
        )
        assert not torn
        assert [r["kind"] for r in records] == [
            "cycle",
            "trained",
            "gate",
            "promoted",
        ]
