"""Fleet subsystem tests: leases, receipts, crash-exact aggregation.

The differential core: a fleet of N workers — with or without injected
worker crashes, hangs, transient errors, a serve-server restart, or a
coordinator SIGKILL-and-resume — must produce a ``CampaignResult``
byte-identical to the fault-free single-process campaign. Byte-identity
is compared via ``campaign_result_to_dict`` JSON, the same canonical
form the journal checkpoints.
"""

from __future__ import annotations

import dataclasses
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import rng as rngmod
from repro.core.mlpct import (
    ExplorationConfig,
    MLPCTExplorer,
    PCTExplorer,
    run_campaign,
)
from repro.core.strategies import make_strategy
from repro.errors import FleetError, ServeError
from repro.fleet import (
    FleetConfig,
    LeaseTable,
    load_receipt,
    receipt_path,
    run_fleet,
    verify_receipts,
    write_receipt,
)
from repro.fleet.report import FleetReport, render_fleet_report
from repro.resilience.journal import campaign_result_to_dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER = os.path.join(REPO_ROOT, "tests", "_fleet_driver.py")

NUM_CTIS = 3


@pytest.fixture(scope="module")
def candidate_graphs(dataset_builder):
    from repro.execution.pct import propose_hint_pairs

    entry_a, entry_b = dataset_builder.corpus.sample_pairs(
        rngmod.make_rng(3), 1
    )[0]
    pairs = propose_hint_pairs(
        rngmod.make_rng(11), entry_a.trace, entry_b.trace, 7
    )
    return [
        dataset_builder.graph_for(entry_a, entry_b, list(pair))
        for pair in pairs
    ]


def _result_json(result) -> str:
    return json.dumps(campaign_result_to_dict(result), sort_keys=True)


def _config() -> ExplorationConfig:
    return ExplorationConfig(
        execution_budget=2, proposal_pool=6, inference_cap=8
    )


def _ctis(dataset_builder, count=NUM_CTIS):
    return dataset_builder.corpus.sample_pairs(rngmod.make_rng(11), count)


def _pct(dataset_builder):
    return PCTExplorer(dataset_builder, config=_config(), seed=4)


def _mlpct(dataset_builder, tiny_model):
    return MLPCTExplorer(
        dataset_builder,
        predictor=tiny_model,
        strategy=make_strategy("S1"),
        config=_config(),
        seed=4,
    )


def _fleet_config(**overrides) -> FleetConfig:
    base = dict(workers=2, lease_seconds=5.0, heartbeat_interval=0.05)
    base.update(overrides)
    return FleetConfig(**base)


# -- leases -------------------------------------------------------------------


class TestLeaseTable:
    def test_grant_renew_release(self):
        table = LeaseTable(lease_seconds=10.0)
        table.grant(job_id=4, worker=1, attempt=0, now=100.0)
        lease = table.lease_of(1)
        assert lease.job_id == 4 and lease.attempt == 0
        assert lease.age(103.0) == pytest.approx(3.0)
        table.renew(1, 105.0)
        assert table.lease_of(1).idle(106.0) == pytest.approx(1.0)
        table.release(1)
        assert table.lease_of(1) is None
        assert table.grants == 1 and table.renewals == 1

    def test_expiry_is_idle_based_not_age_based(self):
        table = LeaseTable(lease_seconds=2.0)
        table.grant(job_id=0, worker=0, attempt=0, now=0.0)
        # Renewals keep a long-running job alive indefinitely...
        for now in (1.0, 2.0, 3.0):
            table.renew(0, now)
            assert table.expired(now + 1.0) == []
        # ...and only silence past the deadline expires it.
        expired = table.expired(6.0)
        assert [lease.worker for lease in expired] == [0]
        assert table.lease_of(0) is None
        assert table.expirations == 1

    def test_renew_without_lease_is_noop(self):
        table = LeaseTable(lease_seconds=1.0)
        table.renew(3, 50.0)
        assert table.lease_of(3) is None
        assert table.renewals == 0


# -- receipts -----------------------------------------------------------------


class TestReceipts:
    BODY = {
        "campaign": "MLPCT-S1 (PIC)",
        "job": 6,
        "kind": "score",
        "cti_index": 3,
        "cti": ["sti-1", "sti-2"],
        "seed": 7,
        "worker": 1,
        "pid": 4242,
        "attempt": 1,
        "attempts": 2,
        "inputs": "abc123",
        "result": "def456",
    }

    def test_roundtrip_and_checksum(self, tmp_path):
        path = write_receipt(str(tmp_path), dict(self.BODY))
        assert path == receipt_path(str(tmp_path), self.BODY["campaign"], 6)
        receipt = load_receipt(path)
        assert receipt["job"] == 6
        assert receipt["schema"] == 1
        assert json.load(open(path))["checksum"]  # sealed on disk

    def test_tampering_is_detected(self, tmp_path):
        path = write_receipt(str(tmp_path), dict(self.BODY))
        payload = json.load(open(path))
        payload["result"] = "0" * len(payload["result"])
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(FleetError, match="checksum"):
            load_receipt(path)
        with pytest.raises(FleetError, match="checksum"):
            verify_receipts(str(tmp_path))

    def test_verify_filters_by_label_and_sorts(self, tmp_path):
        for job in (4, 0, 2):
            body = dict(self.BODY, job=job)
            write_receipt(str(tmp_path), body)
        write_receipt(str(tmp_path), dict(self.BODY, campaign="PCT", job=1))
        ours = verify_receipts(str(tmp_path), "MLPCT-S1 (PIC)")
        assert [receipt["job"] for receipt in ours] == [0, 2, 4]
        assert len(verify_receipts(str(tmp_path))) == 4


# -- coordinator validation ---------------------------------------------------


class TestFleetValidation:
    def test_rejects_supervised_explorer(self, dataset_builder):
        from repro.resilience.supervisor import SupervisionPolicy

        explorer = PCTExplorer(
            dataset_builder,
            config=ExplorationConfig(supervision=SupervisionPolicy()),
            seed=0,
        )
        with pytest.raises(FleetError, match="supervision"):
            run_fleet(explorer, [], _fleet_config())

    def test_rejects_parallel_explorer(self, dataset_builder):
        explorer = PCTExplorer(
            dataset_builder,
            config=ExplorationConfig(parallel_workers=2),
            seed=0,
        )
        with pytest.raises(FleetError, match="parallelism"):
            run_fleet(explorer, [], _fleet_config())

    def test_rejects_zero_workers(self, dataset_builder):
        with pytest.raises(FleetError, match="at least one worker"):
            run_fleet(_pct(dataset_builder), [], _fleet_config(workers=0))

    def test_rejects_mlpct_without_a_model(self, dataset_builder, tiny_model):
        # A backend but no local predictor: workers would have nothing
        # to score with unless they reach a serve socket.
        from repro.fleet import FleetCoordinator

        explorer = MLPCTExplorer(
            dataset_builder,
            predictor=None,
            strategy=make_strategy("S1"),
            backend=tiny_model,
            config=_config(),
            seed=4,
        )
        with pytest.raises(FleetError, match="needs a model"):
            FleetCoordinator(explorer, _ctis(dataset_builder), _fleet_config())


# -- differential: fleet vs single process ------------------------------------


class TestFleetIdentity:
    def test_pct_fleet_matches_sequential(self, dataset_builder):
        ctis = _ctis(dataset_builder)
        reference = _result_json(run_campaign(_pct(dataset_builder), ctis))
        result, report = run_fleet(
            _pct(dataset_builder), ctis, _fleet_config()
        )
        assert _result_json(result) == reference
        assert report.execute_jobs > 0 and report.score_jobs == 0
        assert report.jobs_completed == report.jobs_total
        assert result.resilience is None  # matches the sequential result

    def test_mlpct_fleet_matches_sequential(self, dataset_builder, tiny_model):
        ctis = _ctis(dataset_builder)
        reference = _result_json(
            run_campaign(_mlpct(dataset_builder, tiny_model), ctis)
        )
        result, report = run_fleet(
            _mlpct(dataset_builder, tiny_model), ctis, _fleet_config()
        )
        assert _result_json(result) == reference
        assert report.score_jobs == NUM_CTIS
        assert sum(report.per_worker_jobs.values()) == report.jobs_completed

    def test_single_worker_fleet_matches_wide_fleet(
        self, dataset_builder, tiny_model
    ):
        ctis = _ctis(dataset_builder)
        one, _ = run_fleet(
            _mlpct(dataset_builder, tiny_model), ctis, _fleet_config(workers=1)
        )
        three, _ = run_fleet(
            _mlpct(dataset_builder, tiny_model), ctis, _fleet_config(workers=3)
        )
        assert _result_json(one) == _result_json(three)

    def test_faulted_fleet_converges_identically(
        self, dataset_builder, tiny_model, tmp_path
    ):
        """Worker crash + hang + transient error: every job is retried to
        completion and the aggregate is still byte-identical."""
        ctis = _ctis(dataset_builder)
        reference = _result_json(
            run_campaign(_mlpct(dataset_builder, tiny_model), ctis)
        )
        receipts = str(tmp_path / "receipts")
        config = _fleet_config(
            lease_seconds=1.5,
            fault_spec="crash@0,hang@2,transient@3",
            receipts_dir=receipts,
        )
        result, report = run_fleet(
            _mlpct(dataset_builder, tiny_model), ctis, config
        )
        assert _result_json(result) == reference
        assert report.reassignments >= 3
        assert report.worker_deaths >= 2  # crash + hung worker killed
        assert report.lease_expirations >= 1
        assert report.transient_errors >= 1
        # Receipt coverage was verified by the coordinator; spot-check
        # that retried jobs recorded their attempt count.
        by_job = {
            receipt["job"]: receipt for receipt in verify_receipts(receipts)
        }
        assert by_job[0]["attempts"] == 2  # crashed once, succeeded once
        assert by_job[3]["attempts"] == 2  # transient error then success

    def test_receipt_coverage_gap_is_detected(
        self, dataset_builder, tiny_model, tmp_path
    ):
        from repro.fleet import FleetCoordinator

        ctis = _ctis(dataset_builder)
        receipts = str(tmp_path / "receipts")
        coordinator = FleetCoordinator(
            _mlpct(dataset_builder, tiny_model),
            ctis,
            _fleet_config(receipts_dir=receipts),
        )
        coordinator.run()  # verifies coverage at finish
        victim = min(
            entry for entry in os.listdir(receipts) if "job-" in entry
        )
        os.unlink(os.path.join(receipts, victim))
        with pytest.raises(FleetError, match="receipt"):
            coordinator._verify_receipt_coverage()


# -- fleet heartbeats and report ----------------------------------------------


class TestFleetObservability:
    def test_heartbeat_dir_feeds_top(self, dataset_builder, tmp_path):
        from repro.obs.export import render_top

        beats = str(tmp_path / "beats")
        result, _ = run_fleet(
            _pct(dataset_builder),
            _ctis(dataset_builder),
            _fleet_config(heartbeat_dir=beats),
        )
        rendered = render_top([beats])
        assert "coordinator" in rendered
        assert f"{NUM_CTIS}/{NUM_CTIS} (100%)" in rendered
        assert "pending 0, reassigned 0" in rendered
        assert "fleet:PCT" in rendered
        for slot in range(2):
            assert f"fleet-worker-{slot}" in rendered

    def test_one_top_table_over_campaign_fleet_and_learn(
        self, dataset_builder, tmp_path, capsys
    ):
        """Campaign file, fleet dir and learn dir: one ``repro top`` table."""
        from repro.cli import main
        from repro.learn import FineTuneWorker, LabelStore
        from repro.obs.export import HeartbeatWriter
        from repro.serve import ModelRegistry

        campaign = str(tmp_path / "campaign.json")
        HeartbeatWriter(campaign).begin("MLPCT-S1", total=4)
        beats = str(tmp_path / "beats")
        run_fleet(
            _pct(dataset_builder),
            _ctis(dataset_builder),
            _fleet_config(heartbeat_dir=beats),
        )
        learn_dir = str(tmp_path / "learn")
        store = LabelStore(learn_dir)
        worker = FineTuneWorker(
            learn_dir, store, ModelRegistry(str(tmp_path / "reg")), None
        )
        try:
            assert worker.run_once() is None  # no labels: idle
        finally:
            worker.close()
            store.close()
        assert main(["top", campaign, beats, learn_dir]) == 0
        table = capsys.readouterr().out
        assert table.count("live progress") == 1
        roles = [line.split("|")[0].strip() for line in table.splitlines()[3:]]
        assert roles == ["campaign", "coordinator", "worker", "worker", "learn"]
        assert "MLPCT-S1" in table and "fleet:PCT" in table
        assert "idle, cycle -" in table

    def test_fleet_report_renders(self):
        report = FleetReport(
            campaign="PCT",
            workers=3,
            ctis=5,
            resumed_ctis=2,
            score_jobs=0,
            execute_jobs=5,
            jobs_completed=5,
            reassignments=1,
            worker_deaths=1,
            receipts=5,
        )
        rendered = render_fleet_report([report])
        assert "PCT" in rendered
        assert "3+2r" in rendered  # resumed CTIs are called out

    def test_fleet_metrics_counters(self, dataset_builder):
        from repro import obs

        registry = obs.set_registry(obs.MetricsRegistry(process="test"))
        try:
            run_fleet(
                _pct(dataset_builder),
                _ctis(dataset_builder),
                _fleet_config(),
            )
        finally:
            summary = registry.close()
            obs.clear_registry()
        snapshot = summary["counters"]
        assert snapshot.get("fleet.dispatched", 0) >= NUM_CTIS
        assert snapshot.get("fleet.jobs_completed", 0) >= NUM_CTIS

    def test_execution_counters_match_in_process_runs(self, dataset_builder):
        """Workers run with telemetry off; what the parent re-emits from
        their results must be what an in-process run counts itself —
        whether the workers are the CT pool's or the fleet's."""
        from repro import obs

        ctis = _ctis(dataset_builder)
        names = [
            "execution.runs",
            "execution.steps",
            "execution.hangs",
            "execution.deadlocks",
        ]

        def pct(workers):
            config = dataclasses.replace(_config(), parallel_workers=workers)
            return PCTExplorer(dataset_builder, config=config, seed=4)

        def counted(run):
            registry = obs.MetricsRegistry(sink=obs.MemorySink())
            with obs.use_registry(registry):
                run()
            return {name: registry.counter(name).value for name in names}

        serial = counted(lambda: run_campaign(pct(0), ctis))
        assert serial["execution.runs"] > 0 and serial["execution.steps"] > 0
        assert counted(lambda: run_campaign(pct(2), ctis)) == serial
        assert (
            counted(lambda: run_fleet(pct(0), ctis, _fleet_config(workers=1)))
            == serial
        )


# -- socket backend resilience ------------------------------------------------


@pytest.fixture()
def restartable_server(tiny_model, tmp_path):
    from repro.serve import PredictionServer, ServerConfig

    path = str(tmp_path / "pic.sock")

    def start():
        return PredictionServer(
            tiny_model,
            ServerConfig(socket_path=path),
            version="v1",
        ).start()

    server = start()
    holder = {"server": server, "start": start, "path": path}
    yield holder
    holder["server"].stop()


class TestSocketResilience:
    def test_reconnects_after_server_restart(
        self, restartable_server, candidate_graphs
    ):
        from repro.serve import SocketBackend

        client = SocketBackend(
            restartable_server["path"], retries=6, backoff_seconds=0.05
        )
        try:
            first = client.predict_proba_batch(candidate_graphs)
            restartable_server["server"].stop()
            restartable_server["server"] = restartable_server["start"]()
            second = client.predict_proba_batch(candidate_graphs)
            np.testing.assert_array_equal(
                np.asarray(first), np.asarray(second)
            )
            assert client.reconnects >= 1
        finally:
            client.close()

    def test_transient_errors_exhaust_into_serve_error(self, tmp_path):
        from repro.serve import SocketBackend

        client = SocketBackend(
            str(tmp_path / "absent.sock"), retries=2, backoff_seconds=0.01
        )
        with pytest.raises(ServeError, match="cannot reach.*3 attempts"):
            client.status()
        client.close()

    def test_circuit_breaker_opens_and_recovers(self, restartable_server):
        from repro.serve import SocketBackend

        holder = restartable_server
        holder["server"].stop()
        client = SocketBackend(
            holder["path"],
            retries=0,
            backoff_seconds=0.01,
            circuit_threshold=2,
            circuit_cooldown_seconds=0.2,
        )
        try:
            for _ in range(2):
                with pytest.raises(ServeError, match="cannot reach"):
                    client.status()
            assert client.circuit_opens == 1
            # While open, requests fail fast without touching the socket.
            with pytest.raises(ServeError, match="circuit open"):
                client.status()
            # After the cooldown a half-open probe reaches the restarted
            # server and the circuit closes.
            holder["server"] = holder["start"]()
            time.sleep(0.25)
            assert client.ping()
        finally:
            client.close()

    def test_fatal_protocol_errors_are_not_retried(self, restartable_server):
        from repro.serve import SocketBackend

        client = SocketBackend(
            restartable_server["path"], retries=5, backoff_seconds=0.05
        )
        try:
            with pytest.raises(ServeError, match="unknown op"):
                client._request({"op": "bogus"})
            assert client.reconnects == 0
        finally:
            client.close()

    def test_probe_socket_states(self, restartable_server, tmp_path):
        import socket as socketmod

        from repro.serve import probe_socket

        assert probe_socket(restartable_server["path"]) == "live"
        assert probe_socket(str(tmp_path / "missing.sock")) == "absent"
        stale = str(tmp_path / "stale.sock")
        probe = socketmod.socket(socketmod.AF_UNIX, socketmod.SOCK_STREAM)
        probe.bind(stale)
        probe.close()  # bound but never listening: a SIGKILL leftover
        assert probe_socket(stale) == "dead"

    def test_server_replaces_stale_socket_but_not_live_one(
        self, restartable_server, tiny_model, tmp_path
    ):
        import socket as socketmod

        from repro.serve import PredictionServer, ServerConfig

        with pytest.raises(ServeError, match="already listening"):
            PredictionServer(
                tiny_model,
                ServerConfig(socket_path=restartable_server["path"]),
                version="v2",
            )
        stale = str(tmp_path / "stale.sock")
        probe = socketmod.socket(socketmod.AF_UNIX, socketmod.SOCK_STREAM)
        probe.bind(stale)
        probe.close()
        server = PredictionServer(
            tiny_model, ServerConfig(socket_path=stale), version="v2"
        ).start()
        server.stop()


# -- chaos: everything at once (CI fleet chaos job) ---------------------------


@pytest.mark.slow
class TestFleetChaos:
    def test_fleet_rides_out_worker_kill_and_server_outage(
        self, dataset_builder, tiny_model, tmp_path
    ):
        """The satellite-5 chaos scenario: a 3-worker fleet scoring
        through a socket server, with one worker killed by fault
        injection and a serve-server outage covering the start of the
        run — the fleet launches against a *down* server, every worker
        rides out the outage with retry/backoff until the server comes
        up, and the aggregate is still byte-identical with every job
        receipted."""
        from repro.serve import PredictionServer, ServerConfig

        ctis = _ctis(dataset_builder, 4)
        reference = _result_json(
            run_campaign(_mlpct(dataset_builder, tiny_model), ctis)
        )
        path = str(tmp_path / "pic.sock")

        def start_server():
            return PredictionServer(
                tiny_model,
                ServerConfig(socket_path=path),
                version="v1",
            ).start()

        holder = {}

        def bring_up_late():
            # The outage: nothing listens for the first second, exactly
            # like a serve server dying and being restarted by its
            # supervisor while the fleet keeps running.
            time.sleep(1.0)
            holder["server"] = start_server()

        starter = threading.Thread(target=bring_up_late, daemon=True)
        receipts = str(tmp_path / "receipts")
        config = _fleet_config(
            workers=3,
            lease_seconds=10.0,
            fault_spec="crash@1",
            receipts_dir=receipts,
            serve_socket=path,
            serve_retries=10,
            serve_backoff_seconds=0.25,
        )
        starter.start()
        try:
            result, report = run_fleet(
                _mlpct(dataset_builder, tiny_model), ctis, config
            )
        finally:
            starter.join(timeout=10.0)
            if "server" in holder:
                holder["server"].stop()
        assert _result_json(result) == reference
        assert report.reassignments >= 1, "the killed worker's job moved"
        assert report.serve_reconnects >= 1, "workers rode out the outage"
        receipts_found = verify_receipts(receipts)
        assert len(receipts_found) == report.jobs_total


# -- kill-and-resume ----------------------------------------------------------


@pytest.mark.slow
class TestFleetKillResume:
    def test_coordinator_death_then_resume_is_byte_identical(self, tmp_path):
        """``die@5`` makes the coordinator ``os._exit`` at dispatch of
        job 5 — indistinguishable from SIGKILL. Resuming the journal
        (without the die spec) must reproduce the fault-free
        single-process aggregate byte-for-byte."""
        sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))
        from _fleet_driver import build_fleet_campaign
        from repro.fleet import FleetConfig as DriverFleetConfig
        from repro.resilience.journal import CampaignJournal
        from repro.resilience.supervisor import DIE_EXIT_STATUS

        reference = _result_json(run_campaign(*build_fleet_campaign()))
        journal_path = str(tmp_path / "fleet.journal")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # One worker makes the pre-death fold count deterministic: jobs
        # run in dispatch order, so CTIs 0 and 1 are folded (and
        # journaled) before the coordinator dies dispatching job 5.
        proc = subprocess.run(
            [
                sys.executable,
                DRIVER,
                journal_path,
                "--fault-spec",
                "die@5",
                "--workers",
                "1",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=600,
        )
        assert proc.returncode == DIE_EXIT_STATUS
        assert os.path.exists(journal_path)

        explorer, ctis = build_fleet_campaign()
        journal = CampaignJournal(journal_path)
        try:
            result, report = run_fleet(
                explorer,
                ctis,
                DriverFleetConfig(
                    workers=2, lease_seconds=5.0, heartbeat_interval=0.1
                ),
                journal=journal,
            )
        finally:
            journal.close()
        assert report.resumed_ctis == 2, "the journal restored progress"
        assert _result_json(result) == reference


@pytest.mark.slow
class TestFleetWorkerProcesses:
    def test_burying_a_just_spawned_worker_reaps_it(self, dataset_builder):
        """A coordinator with a Python SIGTERM handler (``repro --trace``
        and ``--flight`` install one) hands it to every worker it forks,
        and a SIGTERM landing right after the fork is dropped when the
        child clears its pending signals — so burying must SIGKILL, or
        about one just-spawned worker in a hundred survives its burial
        after a join timeout has been waited out."""
        from repro.fleet import FleetCoordinator

        coordinator = FleetCoordinator(
            _pct(dataset_builder),
            _ctis(dataset_builder),
            _fleet_config(workers=1, max_worker_deaths=10**6),
        )

        def on_sigterm(signum, frame):  # the CLI's handler
            raise SystemExit(143)

        previous = signal.signal(signal.SIGTERM, on_sigterm)
        try:
            coordinator._setup()
            try:
                for _ in range(300):
                    victim = coordinator._workers[0].process
                    started = time.monotonic()
                    try:
                        coordinator._bury_worker(0, None)
                        assert not victim.is_alive()
                        assert time.monotonic() - started < 2.5
                    finally:
                        victim.kill()  # a failure must not leak the child
            finally:
                coordinator._teardown()
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_workers_do_not_outlive_a_killed_coordinator(self, tmp_path):
        """The fleet twin of the supervisor's orphan test: every worker
        holds a copy of the coordinator's end of its siblings' pipes, so
        a coordinator that dies without unwinding (``die@5`` is
        ``os._exit`` at dispatch, what SIGKILL looks like) never EOFs
        anybody — the shared worker loop must notice the re-parenting."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable,
                DRIVER,
                str(tmp_path / "fleet.journal"),
                "--fault-spec",
                "die@5",
                "--workers",
                "3",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            start_new_session=True,  # so a failure can reap the orphans
        )
        try:
            assert process.wait(timeout=600) == 137
            # The workers inherited this pipe's write end: it reaches EOF
            # only once the last of them has exited.
            ready, _, _ = select.select([process.stdout], [], [], 3.0)
            assert ready and os.read(process.stdout.fileno(), 1) == b"", (
                "fleet workers outlived their coordinator"
            )
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            process.stdout.close()
