"""Tests of the cross-process observability layer (PR 6).

The load-bearing claims: (1) trace context propagates over the serve
socket, so a client's and a server's span trees merge into one tree
under one trace id with cache/compute attribution; (2)
the operational exports (Prometheus exposition, heartbeats, ``repro
top``, the serve watch line) render real registry data; (3) the flight
recorder dumps a complete atomic post-mortem on SIGUSR1; (4) none of it exists when telemetry is
off — a served campaign's results are identical either way.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro import obs
from repro import rng as rngmod
from repro.execution.pct import propose_hint_pairs
from repro.core.mlpct import ExplorationConfig, MLPCTExplorer, run_campaign
from repro.core.strategies import make_strategy
from repro.obs.export import (
    HeartbeatWriter,
    read_heartbeat,
    render_prometheus,
    render_serve_watch,
    render_top,
    snapshot_from_stats,
)
from repro.obs.flight import FlightRecorder, install as install_flight
from repro.obs.propagation import TraceContext, current_context, parse_span_ref
from repro.obs.report import merge_traces, render_merged_report, serve_rows
from repro.obs.sink import MemorySink, read_events_tolerant
from repro.oracle import DifferentialRunner, add_campaign_check
from repro.serve import PredictionServer, ServerConfig, SocketBackend


@pytest.fixture(scope="module")
def candidate_graphs(dataset_builder):
    """A pool of candidate graphs of one CTI (shared template)."""
    entry_a, entry_b = dataset_builder.corpus.sample_pairs(
        rngmod.make_rng(3), 1
    )[0]
    rng = rngmod.make_rng(11)
    pairs = propose_hint_pairs(rng, entry_a.trace, entry_b.trace, 7)
    return [
        dataset_builder.graph_for(entry_a, entry_b, list(pair)) for pair in pairs
    ]


# -- trace-context propagation -----------------------------------------------


class TestTraceContext:
    def test_wire_round_trip(self):
        context = TraceContext(trace_id="ab12cd34ef56ab78", span_ref="client:7")
        assert TraceContext.from_wire(context.to_wire()) == context

    @pytest.mark.parametrize(
        "token",
        [
            None,
            42,
            "",
            "not-a-context",
            "00-xyz-client:7-01",  # non-hex trace id
            "00-ab12cd34-client-01",  # ref missing the span id
            "99-ab12cd34-client:7-01",  # unknown version
        ],
    )
    def test_malformed_tokens_degrade_to_none(self, token):
        assert TraceContext.from_wire(token) is None

    def test_parse_span_ref(self):
        assert parse_span_ref("server:12") == ("server", 12)
        assert parse_span_ref("no-colon") is None
        assert parse_span_ref("proc:notanumber") is None

    def test_current_context_off_is_none(self):
        assert current_context() is None

    def test_current_context_names_the_open_span(self):
        registry = obs.MetricsRegistry(sink=MemorySink(), process="client")
        with obs.use_registry(registry):
            outer = current_context()
            assert outer is not None
            assert outer.trace_id == registry.trace_id
            assert outer.span_ref == "client:0"  # no open span: root ref
            with registry.span("campaign.cti") as span:
                inner = current_context()
                assert inner.span_ref == f"client:{span.span_id}"

    def test_remote_context_propagates_trace_id_onward(self):
        registry = obs.MetricsRegistry(sink=MemorySink(), process="server")
        remote = TraceContext(trace_id="feed0123feed4567", span_ref="client:3")
        with registry.remote_context(remote):
            context = current_context(registry)
            assert context.trace_id == "feed0123feed4567"
        assert current_context(registry).trace_id == registry.trace_id


class TestThreadLocalSpans:
    def test_handler_threads_do_not_corrupt_each_others_stacks(self):
        import threading

        registry = obs.MetricsRegistry(sink=MemorySink())
        barrier = threading.Barrier(4)
        errors = []

        def worker(index):
            try:
                barrier.wait(timeout=10.0)
                for _ in range(50):
                    with registry.span(f"serve.request") as outer:
                        with registry.span("serve.cache") as inner:
                            assert inner.parent_id == outer.span_id
                        assert registry.current_span() is outer
                    assert registry.current_span() is None
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            __import__("threading").Thread(target=worker, args=(i,))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors


# -- client+server merge over the socket -------------------------------------


@pytest.fixture()
def traced_socket_pair(tiny_model, tmp_path):
    """A socket server with its own registry + a client registry."""
    server_sink, client_sink = MemorySink(), MemorySink()
    server_registry = obs.MetricsRegistry(sink=server_sink, process="server")
    client_registry = obs.MetricsRegistry(sink=client_sink, process="client")
    server = PredictionServer(
        tiny_model,
        ServerConfig(socket_path=str(tmp_path / "traced.sock")),
        version="v1",
        registry=server_registry,
    ).start()
    yield server, server_registry, client_registry, server_sink, client_sink
    server.stop()


class TestCrossProcessMerge:
    def test_span_trees_merge_under_one_trace_id(
        self, traced_socket_pair, candidate_graphs
    ):
        server, server_reg, client_reg, server_sink, client_sink = (
            traced_socket_pair
        )
        client = SocketBackend(server.config.socket_path)
        try:
            with obs.use_registry(client_reg):
                client.predict_proba_batch(candidate_graphs)
        finally:
            client.close()
        client_reg.close()
        server_reg.close()

        merged = merge_traces(
            [client_sink.events, server_sink.events]
        )
        spans = {span["name"]: span for span in merged["spans"]}
        assert merged["links"] == 1
        assert set(merged["procs"]) == {"client", "server"}

        call = spans["serve.call"]
        request = spans["serve.request"]
        cache = spans["serve.cache"]
        compute = spans["serve.compute"]
        # One tree: server request under client call, cache lookup and
        # model compute as plain children of the request, all on the
        # client's trace id.
        assert request["parent"] == call["id"]
        assert cache["parent"] == compute["parent"] == request["id"]
        assert (
            call["trace"]
            == request["trace"]
            == compute["trace"]
            == client_reg.trace_id
        )
        # Attribution: every graph missed, in one 7-graph compute.
        assert cache["attrs"] == {"hits": 0, "misses": len(candidate_graphs)}
        assert compute["attrs"]["batch"] == len(candidate_graphs)
        assert compute["dur"] > 0.0
        assert compute["start"] >= cache["start"]
        # Time alignment: the server's request starts at/after the
        # client call on the merged timeline (median-offset alignment).
        assert request["start"] >= call["start"] - 1e-6

        report = render_merged_report(merged)
        assert "serve attribution" in report
        assert "serve.compute" in report
        assert "cross-process links resolved: 1" in report

    def test_untraced_client_leaves_the_wire_clean(
        self, traced_socket_pair, candidate_graphs, tiny_model
    ):
        """With client telemetry off no trace header is sent: the server
        records an independent root (no remote link) and predictions are
        still byte-identical to the local model."""
        server, _server_reg, _client_reg, server_sink, _ = traced_socket_pair
        client = SocketBackend(server.config.socket_path)
        try:
            assert obs.active() is None
            served = client.predict_proba_batch(candidate_graphs)
        finally:
            client.close()
        for graph, proba in zip(candidate_graphs, served):
            # Batched compute reorders float sums: ULP-level tolerance.
            np.testing.assert_allclose(
                proba, tiny_model.predict_proba(graph), rtol=1e-12
            )
        requests = [
            event
            for event in server_sink.events
            if event.get("event") == "span" and event["name"] == "serve.request"
        ]
        assert requests and all("remote" not in event for event in requests)

    def test_serve_rows_aggregate_attribution(self):
        spans = [
            {"name": "serve.compute", "dur": 0.1, "attrs": {"batch": 4}},
            {"name": "serve.call", "dur": 0.2, "attrs": {}},
            {"name": "serve.compute", "dur": 0.3, "attrs": {"batch": 2}},
            {"name": "campaign.cti", "dur": 9.9, "attrs": {}},
        ]
        rows = serve_rows(spans)
        assert [row["span"] for row in rows] == ["serve.call", "serve.compute"]
        compute_row = rows[1]
        assert compute_row["count"] == 2
        assert compute_row["mean batch"] == "3.0"
        assert compute_row["mean ms"] == pytest.approx(200.0)
        assert rows[0]["mean batch"] == "-"


# -- tolerant trace reading --------------------------------------------------


class TestTruncatedTail:
    def test_truncated_final_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"event": "point", "name": "a", "seq": 0})
            + "\n"
            + '{"event": "span", "na'  # crash mid-write
        )
        events, truncated = read_events_tolerant(str(path))
        assert truncated == 1
        assert [event["name"] for event in events] == ["a"]

    def test_interior_garbage_still_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            'garbage\n' + json.dumps({"event": "point", "seq": 0}) + "\n"
        )
        with pytest.raises(json.JSONDecodeError):
            read_events_tolerant(str(path))

    def test_garbage_only_file_is_not_a_trace(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(json.JSONDecodeError):
            read_events_tolerant(str(path))


# -- Prometheus exposition ---------------------------------------------------


class TestPrometheusExposition:
    def test_registry_snapshot_renders(self):
        registry = obs.MetricsRegistry(sink=MemorySink(), process="server")
        registry.counter("serve.cache.hits").add(3)
        registry.gauge("serve.cache.bytes").set(2)
        for value in (0.001, 0.002, 0.004):
            registry.histogram("serve.request.seconds").observe(value)
        with registry.span("serve.request"):
            pass
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_serve_cache_hits_total counter" in text
        assert "repro_serve_cache_hits_total 3" in text
        assert "repro_serve_cache_bytes 2" in text
        assert "# TYPE repro_serve_request_seconds summary" in text
        assert 'repro_serve_request_seconds{quantile="0.99"}' in text
        assert "repro_serve_request_seconds_count 3" in text
        assert 'repro_span_seconds_total{span="serve.request"}' in text

    def test_exposition_parses(self):
        """Every non-comment line is `name{labels}? value` with a float
        value — the format contract a scraper relies on."""
        registry = obs.MetricsRegistry(sink=MemorySink())
        registry.counter("a.b").add(1)
        registry.gauge("c-d").set(1.5)
        registry.histogram("e f").observe(0.2)
        text = render_prometheus(registry.snapshot())
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE repro_")
                continue
            name, value = line.rsplit(" ", 1)
            float(value)  # must parse
            metric = name.split("{", 1)[0]
            assert metric.startswith("repro_")
            assert " " not in metric

    def test_stats_fallback_snapshot(self):
        snapshot = snapshot_from_stats(
            {
                "requests": 7,
                "cache": {"hits": 5, "misses": 2, "hit_rate": 5 / 7,
                          "bytes": 128, "evictions": 0},
            }
        )
        text = render_prometheus(snapshot)
        assert "repro_serve_requests_total 7" in text
        assert "repro_serve_cache_hits_total 5" in text


# -- flight recorder ---------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_tees_to_inner(self, tmp_path):
        inner = MemorySink()
        recorder = FlightRecorder(
            str(tmp_path / "dump.json"), capacity=4, inner=inner
        )
        for index in range(10):
            recorder.write({"event": "point", "seq": index})
        assert len(inner.events) == 10  # tee passes everything through
        recorder.dump_now("test")
        dump = json.loads((tmp_path / "dump.json").read_text())
        assert [event["seq"] for event in dump["events"]] == [6, 7, 8, 9]
        assert dump["reason"] == "test"

    def test_dump_on_sigusr1(self, tmp_path):
        path = tmp_path / "flight.json"
        previous = signal.getsignal(signal.SIGUSR1)
        registry = obs.MetricsRegistry(sink=MemorySink())
        try:
            with obs.use_registry(registry):
                recorder = install_flight(str(path), capacity=8)
                obs.point("campaign.heartbeat", done=1)
                os.kill(os.getpid(), signal.SIGUSR1)
                deadline = time.monotonic() + 5.0
                while not path.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
        finally:
            signal.signal(signal.SIGUSR1, previous)
        dump = json.loads(path.read_text())
        assert dump["reason"] == "sigusr1"
        assert any(
            event.get("name") == "campaign.heartbeat"
            for event in dump["events"]
        )
        assert dump["metrics"] is not None
        assert recorder.inner is registry.sink or recorder is registry.sink

    def test_install_splices_ahead_of_the_active_sink(self, tmp_path):
        sink = MemorySink()
        registry = obs.MetricsRegistry(sink=sink)
        with obs.use_registry(registry):
            recorder = install_flight(
                str(tmp_path / "d.json"), handlers=False
            )
            assert registry.sink is recorder
            assert recorder.inner is sink
            obs.point("a")
        assert sink.events  # events still reach the original sink

    def test_slow_request_log(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path / "slow.json"), slow_capacity=2)
        recorder.note_slow("predict_batch", 0.5, graphs=3)
        recorder.note_slow("predict_batch", 0.7, graphs=1)
        recorder.note_slow("predict_batch", 0.9, graphs=2)
        recorder.dump_now("test")
        dump = json.loads((tmp_path / "slow.json").read_text())
        assert [entry["seconds"] for entry in dump["slow_requests"]] == [
            0.7,
            0.9,
        ]

    def test_slow_serve_requests_are_recorded(
        self, tiny_model, tmp_path, candidate_graphs
    ):
        from repro.obs import flight as flight_module

        recorder = FlightRecorder(str(tmp_path / "srv.json"))
        previous = flight_module._RECORDER
        flight_module._RECORDER = recorder
        try:
            server = PredictionServer(
                tiny_model,
                ServerConfig(
                    socket_path=str(tmp_path / "slow.sock"),
                    slow_request_ms=0.0,  # everything is "slow"
                ),
                version="v1",
            ).start()
            client = SocketBackend(server.config.socket_path)
            try:
                client.predict_proba_batch(candidate_graphs[:2])
            finally:
                client.close()
                server.stop()
        finally:
            flight_module._RECORDER = previous
        recorder.dump_now("test")
        dump = json.loads((tmp_path / "srv.json").read_text())
        assert dump["slow_requests"]
        assert dump["slow_requests"][0]["op"] == "predict_batch"


# -- heartbeats and repro top ------------------------------------------------


class TestHeartbeat:
    def test_writer_throttles_and_forces(self, tmp_path):
        clock = [0.0]
        writer = HeartbeatWriter(
            str(tmp_path / "beat.json"), interval=1.0, clock=lambda: clock[0]
        )
        writer.begin("MLPCT-S1", total=10)
        assert not writer.update(done=1)  # within the interval: no write
        clock[0] = 2.0
        assert writer.update(done=2, races=1, executions=5)
        beat = read_heartbeat(str(tmp_path / "beat.json"))
        assert beat["done"] == 2 and beat["total"] == 10
        assert beat["races"] == 1 and beat["executions"] == 5
        assert beat["rate_per_second"] == 1.0
        assert beat["eta_seconds"] == 8.0
        clock[0] = 2.5
        assert writer.update(done=10)  # completion always writes

    def test_rate_after_resume_counts_only_this_session(self, tmp_path):
        clock = [0.0]
        path = str(tmp_path / "beat.json")
        writer = HeartbeatWriter(path, clock=lambda: clock[0])
        writer.begin("MLPCT-S1", total=10, done=8)  # 8 done before resume
        clock[0] = 60.0
        assert writer.update(done=9)
        beat = read_heartbeat(path)
        assert beat["rate_per_second"] == pytest.approx(1 / 60, abs=1e-4)
        assert beat["eta_seconds"] == 60.0

    def test_snapshot_schema(self, tmp_path):
        path = str(tmp_path / "beat.json")
        writer = HeartbeatWriter(path, interval=0.0, role="worker")
        writer.begin("fleet-worker-0", total=0)
        writer.update(done=1, detail="execute:3 (cti 1) attempt 1")
        beat = read_heartbeat(path)
        assert beat["schema"] == 1 and beat["role"] == "worker"
        assert beat["detail"] == "execute:3 (cti 1) attempt 1"
        assert beat["eta_seconds"] is None  # open-ended: no ETA

    def test_render_top(self, tmp_path):
        clock = [0.0]
        writer = HeartbeatWriter(
            str(tmp_path / "one.json"), clock=lambda: clock[0]
        )
        writer.begin("MLPCT-S1", total=4)
        clock[0] = 2.0
        writer.update(done=2, races=3)
        table = render_top(
            [str(tmp_path / "one.json"), str(tmp_path / "absent.json")]
        )
        assert "MLPCT-S1" in table
        assert "2/4 (50%)" in table
        assert "(no heartbeat)" in table

    def test_render_top_expands_directories(self, tmp_path):
        for name, role in (("worker-0", "worker"), ("coordinator", "coordinator")):
            writer = HeartbeatWriter(str(tmp_path / f"{name}.json"), role=role)
            writer.begin(name, total=0)
        (tmp_path / "other.json").write_text('{"not": "a heartbeat"}')
        (tmp_path / "empty").mkdir()
        table = render_top([str(tmp_path), str(tmp_path / "empty")])
        body = table.splitlines()[3:]  # title, header, rule
        assert [line.split("|")[0].strip() for line in body] == [
            "coordinator",
            "worker",
            "-",
        ]
        assert "(no heartbeat)" in body[2] and "not" not in table

    def test_campaign_loop_emits_heartbeats(self, dataset_builder, tiny_model):
        ctis = dataset_builder.corpus.sample_pairs(rngmod.make_rng(3), 2)
        import tempfile

        sink = MemorySink()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "beat.json")
            heartbeat = HeartbeatWriter(path, interval=0.0)
            with obs.use_registry(obs.MetricsRegistry(sink=sink)):
                _campaign(dataset_builder, tiny_model, ctis, heartbeat=heartbeat)
            beat = read_heartbeat(path)
        assert beat["done"] == 2 and beat["total"] == 2
        assert beat["label"].startswith("MLPCT")
        points = [
            event
            for event in sink.events
            if event.get("name") == "campaign.heartbeat"
        ]
        assert points and points[-1]["fields"]["done"] == 2


class TestServeWatch:
    def test_render_line(self):
        status = {
            "requests": 120,
            "uptime_seconds": 60.0,
            "model_name": "pic",
            "version": "v1",
            "cache": {"hit_rate": 0.5},
        }
        snapshot = {
            "histograms": {
                "serve.request.seconds": {"p50": 0.002, "p99": 0.010}
            }
        }
        line = render_serve_watch((status, snapshot))
        assert "qps    2.0" in line
        assert "p50    2.00 ms" in line
        assert "p99   10.00 ms" in line
        assert "cache hit  50.0%" in line
        assert "model pic v1" in line
        assert "queue" not in line
        previous = (dict(status, requests=100), snapshot)
        line = render_serve_watch((status, snapshot), previous, elapsed=2.0)
        assert "qps   10.0" in line


# -- telemetry on/off equivalence for a served campaign ----------------------


def _campaign(dataset_builder, predictor, ctis, backend=None, heartbeat=None):
    explorer = MLPCTExplorer(
        dataset_builder,
        predictor=predictor,
        strategy=make_strategy("S1"),
        backend=backend,
        config=ExplorationConfig(
            execution_budget=5,
            inference_cap=24,
            proposal_pool=24,
            score_batch_size=32,
        ),
        seed=0,
    )
    return run_campaign(explorer, ctis, heartbeat=heartbeat)


class TestTelemetryOnOffEquivalence:
    def test_socket_campaign_is_identical_with_and_without_telemetry(
        self, dataset_builder, tiny_model, tmp_path
    ):
        ctis = dataset_builder.corpus.sample_pairs(rngmod.make_rng(3), 2)
        server = PredictionServer(
            tiny_model,
            ServerConfig(socket_path=str(tmp_path / "equiv.sock")),
            version="v1",
        ).start()
        try:
            client = SocketBackend(server.config.socket_path)
            try:
                assert obs.active() is None
                plain = _campaign(dataset_builder, None, ctis, backend=client)
            finally:
                client.close()
            client = SocketBackend(server.config.socket_path)
            sink = MemorySink()
            try:
                with obs.use_registry(
                    obs.MetricsRegistry(sink=sink, process="client")
                ):
                    traced = _campaign(
                        dataset_builder, None, ctis, backend=client
                    )
            finally:
                client.close()
        finally:
            server.stop()
        runner = DifferentialRunner("telemetry-equivalence")
        add_campaign_check(runner, "campaign", lambda: plain, lambda: traced)
        runner.run().raise_if_failed()
        # The traced run really did record the serve path.
        names = {
            event.get("name")
            for event in sink.events
            if event.get("event") == "span"
        }
        assert "serve.call" in names
