"""Tests of :mod:`repro.serve`: digests, cache, registry, backends, the
socket server, and served-campaign equivalence.

The load-bearing claims: (1) the cache key is *content*-addressed — any
prediction-relevant difference changes it, nothing else does; (2) all
serving layers return predictions byte-identical to calling the model
directly; (3) a campaign scored through a backend (in-process or socket)
is indistinguishable from one scored locally, field for field.
"""

from __future__ import annotations

import json
import socket
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import rng as rngmod
from repro.core.mlpct import ExplorationConfig, MLPCTExplorer, run_campaign
from repro.core.scoring import CandidateScorer
from repro.core.strategies import make_strategy
from repro.errors import CheckpointError, ProtocolError, ServeError
from repro.execution.pct import propose_hint_pairs
from repro.graphs.ctgraph import schedule_key
from repro.ml.gnn import GNNConfig, RelationalGCN, prepare_adjacency
from repro.resilience.journal import campaign_result_to_dict
from repro.serve import (
    InProcessServer,
    ModelRegistry,
    PredictionCache,
    PredictionServer,
    ServerConfig,
    SocketBackend,
    graph_digest,
    prediction_key,
)
from repro.serve import server as server_module
from repro.serve.cache import _ENTRY_OVERHEAD
from repro.serve.digest import clear_digest_memo, template_digest
from repro.serve.server import decode_graphs, encode_graphs


@pytest.fixture(scope="module")
def cti(dataset_builder):
    return dataset_builder.corpus.sample_pairs(rngmod.make_rng(3), 1)[0]


@pytest.fixture(scope="module")
def candidate_graphs(dataset_builder, cti):
    """A pool of candidate graphs of one CTI (shared template)."""
    entry_a, entry_b = cti
    rng = rngmod.make_rng(11)
    pairs = propose_hint_pairs(rng, entry_a.trace, entry_b.trace, 7)
    return [
        dataset_builder.graph_for(entry_a, entry_b, list(pair)) for pair in pairs
    ]


# -- content digests ---------------------------------------------------------


class TestGraphDigest:
    def test_same_content_same_digest(self, dataset_builder, cti, candidate_graphs):
        entry_a, entry_b = cti
        rebuilt = dataset_builder.graph_for(
            entry_a, entry_b, list(candidate_graphs[0].hints)
        )
        assert graph_digest(rebuilt) == graph_digest(candidate_graphs[0])

    def test_hint_change_changes_digest(self, candidate_graphs):
        digests = {graph_digest(graph) for graph in candidate_graphs}
        assert len(digests) == len(candidate_graphs)

    def test_structural_repeats_share_key_and_digest(
        self, dataset_builder, cti, candidate_graphs, sibling_hints
    ):
        """Hints inside the same blocks stamp the same graph: one
        ``schedule_key``, one digest. Hints in other blocks, or any edit
        of the hint flags or a schedule row, change both."""
        graph = next(
            g for g in candidate_graphs if sibling_hints(cti, g.hints) != g.hints
        )
        repeat = dataset_builder.graph_for(*cti, list(sibling_hints(cti, graph.hints)))
        assert repeat.hints != graph.hints
        assert schedule_key(repeat) == schedule_key(graph)
        assert graph_digest(repeat) == graph_digest(graph)
        assert len({schedule_key(g) for g in candidate_graphs}) == len(
            candidate_graphs
        )
        for mutate in ("hint_flags", "schedule_rows"):
            mutant = dataset_builder.graph_for(*cti, list(graph.hints))
            getattr(mutant, mutate)[0] += 1
            assert schedule_key(mutant) != schedule_key(graph)
            assert graph_digest(mutant) != graph_digest(graph)

    def test_schedule_rows_are_the_tail_of_edges(self, candidate_graphs):
        """Stamped graphs keep the rows as a view; any other graph
        derives the same rows from ``edges`` on first use."""
        import dataclasses

        graph = candidate_graphs[0]
        assert len(graph.schedule_rows) and np.shares_memory(
            graph.schedule_rows, graph.edges
        )
        derived = dataclasses.replace(graph, edges=graph.edges.copy())
        np.testing.assert_array_equal(derived.schedule_rows, graph.schedule_rows)
        assert schedule_key(derived) == schedule_key(graph)

    def test_digest_is_content_not_identity(self, candidate_graphs):
        """A structurally equal graph with freshly copied arrays (a
        different template object, as a second process would build)
        digests identically — the memo is an optimisation, not the key."""
        import dataclasses

        graph = candidate_graphs[0]
        clone = dataclasses.replace(
            graph,
            node_types=graph.node_types.copy(),
            node_threads=graph.node_threads.copy(),
            node_blocks=graph.node_blocks.copy(),
            hint_flags=graph.hint_flags.copy(),
            token_ids=graph.token_ids.copy(),
            edges=graph.edges.copy(),
            base_cache={},
        )
        assert graph_digest(clone) == graph_digest(graph)

    def test_token_change_changes_digest(self, candidate_graphs):
        import dataclasses

        graph = candidate_graphs[0]
        tokens = graph.token_ids.copy()
        tokens[0, 0] += 1
        mutated = dataclasses.replace(graph, token_ids=tokens, base_cache={})
        assert graph_digest(mutated) != graph_digest(graph)

    def test_memo_survives_clear(self, candidate_graphs):
        before = graph_digest(candidate_graphs[0])
        clear_digest_memo()
        assert graph_digest(candidate_graphs[0]) == before

    def test_prediction_key_embeds_version(self, candidate_graphs):
        graph = candidate_graphs[0]
        assert prediction_key("v1", graph) != prediction_key("v2", graph)
        assert prediction_key("v1", graph).startswith("v1:")


# -- the prediction cache ----------------------------------------------------


def _entry(key: str, size: int) -> tuple:
    value = np.zeros(size // 8, dtype=np.float64)
    return key, value, value.nbytes + len(key) + _ENTRY_OVERHEAD


class TestPredictionCache:
    def test_hit_miss_accounting(self):
        cache = PredictionCache(max_bytes=1 << 20)
        key, value, _ = _entry("k1", 800)
        assert cache.get(key) is None
        cache.put(key, value)
        hit = cache.get(key)
        assert hit is not None and np.array_equal(hit, value)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_returned_arrays_are_readonly(self):
        cache = PredictionCache(max_bytes=1 << 20)
        cache.put("k", np.ones(4))
        with pytest.raises(ValueError):
            cache.get("k")[0] = 9.0

    def test_lru_eviction_and_byte_accounting(self):
        k1, v1, c1 = _entry("k1", 800)
        k2, v2, c2 = _entry("k2", 800)
        k3, v3, c3 = _entry("k3", 800)
        cache = PredictionCache(max_bytes=c1 + c2)
        cache.put(k1, v1)
        cache.put(k2, v2)
        assert cache.bytes_used == c1 + c2
        cache.put(k3, v3)  # evicts k1 (least recently used)
        assert k1 not in cache and k2 in cache and k3 in cache
        assert cache.bytes_used == c2 + c3
        assert cache.stats()["evictions"] == 1

    def test_get_freshens_entry(self):
        k1, v1, c1 = _entry("k1", 800)
        k2, v2, c2 = _entry("k2", 800)
        k3, v3, _ = _entry("k3", 800)
        cache = PredictionCache(max_bytes=c1 + c2)
        cache.put(k1, v1)
        cache.put(k2, v2)
        cache.get(k1)  # k1 becomes most recent; k2 is now the LRU victim
        cache.put(k3, v3)
        assert k1 in cache and k2 not in cache

    def test_replacing_a_key_does_not_double_count(self):
        cache = PredictionCache(max_bytes=1 << 20)
        k, v, cost = _entry("k", 800)
        cache.put(k, v)
        cache.put(k, v)
        assert cache.bytes_used == cost and len(cache) == 1

    def test_value_larger_than_budget_is_not_cached(self):
        cache = PredictionCache(max_bytes=512)
        cache.put("big", np.zeros(1024, dtype=np.float64))
        assert len(cache) == 0 and cache.bytes_used == 0


# -- the model registry ------------------------------------------------------


class TestModelRegistry:
    def test_publish_load_roundtrip_is_exact(
        self, tmp_path, tiny_model, candidate_graphs
    ):
        registry = ModelRegistry(str(tmp_path))
        record = registry.publish(tiny_model)
        assert record.version == "v1" and registry.active_version == "v1"
        loaded = registry.load()
        for graph in candidate_graphs[:2]:
            np.testing.assert_array_equal(
                loaded.predict_proba(graph), tiny_model.predict_proba(graph)
            )

    def test_versions_are_immutable(self, tmp_path, tiny_model):
        registry = ModelRegistry(str(tmp_path))
        registry.publish(tiny_model, version="gold")
        with pytest.raises(ServeError, match="immutable"):
            registry.publish(tiny_model, version="gold")
        with pytest.raises(ServeError, match="invalid"):
            registry.publish(tiny_model, version="a:b")

    def test_activate_and_rollback(self, tmp_path, tiny_model):
        registry = ModelRegistry(str(tmp_path))
        registry.publish(tiny_model)  # v1, active
        registry.publish(tiny_model)  # v2, active, previous=v1
        assert registry.active_version == "v2"
        assert registry.rollback().version == "v1"
        assert registry.active_version == "v1"
        # The manifest is durable: a fresh registry sees the same state.
        reloaded = ModelRegistry(str(tmp_path))
        assert reloaded.active_version == "v1"
        assert [record.version for record in reloaded.versions()] == ["v1", "v2"]
        reloaded.activate("v2")
        assert reloaded.active_version == "v2"

    def test_rollback_without_previous_fails(self, tmp_path, tiny_model):
        registry = ModelRegistry(str(tmp_path))
        registry.publish(tiny_model)
        with pytest.raises(ServeError, match="roll back"):
            registry.rollback()

    def test_corrupt_checkpoint_is_detected(self, tmp_path, tiny_model):
        registry = ModelRegistry(str(tmp_path))
        registry.publish(tiny_model)
        path = registry.checkpoint_path("v1")
        blob = bytearray(open(path, "rb").read())
        blob[100] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            registry.load("v1")

    def test_unknown_version_fails(self, tmp_path, tiny_model):
        registry = ModelRegistry(str(tmp_path))
        with pytest.raises(ServeError, match="unknown model version"):
            registry.record("nope")


# -- the in-process server ---------------------------------------------------


class TestInProcessServer:
    def _server(self, model) -> InProcessServer:
        return InProcessServer(model, version="v1")

    def test_served_predictions_are_byte_identical(
        self, tiny_model, candidate_graphs
    ):
        # A graph's probabilities do not depend on its batch, so a
        # batched compute equals predict_proba bitwise, not approximately.
        server = self._server(tiny_model)
        try:
            served = server.predict_proba_batch(candidate_graphs)
            for graph, proba in zip(candidate_graphs, served):
                np.testing.assert_array_equal(
                    proba, tiny_model.predict_proba(graph)
                )
            assert np.array_equal(
                server.predict_proba(candidate_graphs[0]), served[0]
            )
            assert server.threshold == tiny_model.threshold
        finally:
            server.close()

    def test_repeat_requests_hit_the_cache(self, tiny_model, candidate_graphs):
        server = self._server(tiny_model)
        try:
            cold = server.predict_proba_batch(candidate_graphs)
            warm = server.predict_proba_batch(candidate_graphs)
            for a, b in zip(cold, warm):
                np.testing.assert_array_equal(a, b)
            stats = server.stats()
            assert stats["cache"]["hits"] == len(candidate_graphs)
            assert stats["cache"]["misses"] == len(candidate_graphs)
        finally:
            server.close()

    def test_cache_hits_never_materialise_a_graph(
        self, tiny_model, candidate_graphs
    ):
        server = InProcessServer(tiny_model, version="v1")
        try:
            first = server.predict_proba_batch(candidate_graphs)

            def unreachable():
                raise AssertionError("a cache hit built a graph")

            items = [(graph_digest(g), unreachable) for g in candidate_graphs]
            version, second = server.predict_items_versioned(items)
        finally:
            server.close()
        assert version == "v1"
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_swap_model_changes_served_version(
        self, tiny_model, candidate_graphs
    ):
        from repro.ml.pic import PICModel

        other = PICModel(tiny_model.config, seed=99)  # untrained: differs
        server = self._server(tiny_model)
        try:
            before = server.predict_proba_batch(candidate_graphs[:1])[0]
            server.swap_model(other, "v2")
            assert server.version == "v2"
            after = server.predict_proba_batch(candidate_graphs[:1])[0]
            np.testing.assert_array_equal(
                after, other.predict_proba(candidate_graphs[0])
            )
            assert not np.array_equal(before, after)
            # Old-version cache lines are no longer addressed: the same
            # graph was a miss again under the new version's key space.
            assert server.stats()["cache"]["misses"] == 2
        finally:
            server.close()

    def test_concurrent_clients_get_correct_results(
        self, tiny_model, candidate_graphs
    ):
        """Stress: more clients than cores, switching threads as often as
        the interpreter can. Every reply is bitwise right, each graph is
        computed once, and no request or lookup goes uncounted."""
        reference = [
            tiny_model.predict_proba(graph) for graph in candidate_graphs
        ]
        server = self._server(tiny_model)
        failures = []
        workers = 6

        def client(worker: int) -> None:
            order = list(range(len(candidate_graphs)))
            if worker % 2:
                order.reverse()
            for index in order:
                proba = server.predict_proba(candidate_graphs[index])
                if not np.array_equal(proba, reference[index]):
                    failures.append((worker, index))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(worker,))
                for worker in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        stats = server.stats()
        requests = workers * len(candidate_graphs)
        assert stats["requests"] == requests
        assert stats["cache"]["misses"] == len(candidate_graphs)
        assert stats["cache"]["hits"] == requests - len(candidate_graphs)

    def test_one_requests_misses_are_one_batch(
        self, tiny_model, dataset_builder, cti, candidate_graphs
    ):
        """A request's misses are one forward pass, in 8-graph chunks:
        7 misses are one compute, 19 are computes of 8, 8 and 3."""
        entry_a, entry_b = cti
        pairs = propose_hint_pairs(
            rngmod.make_rng(21), entry_a.trace, entry_b.trace, 40
        )
        pool = {graph_digest(graph): graph for graph in candidate_graphs}
        for pair in pairs:
            graph = dataset_builder.graph_for(entry_a, entry_b, list(pair))
            pool.setdefault(graph_digest(graph), graph)
        larger = list(pool.values())[len(candidate_graphs) :][:19]
        assert len(larger) == 19
        model = _RecordingModel(tiny_model)
        server = InProcessServer(model, version="v1")
        served = server.predict_proba_batch(candidate_graphs)
        assert model.batches == [len(candidate_graphs)]
        served += server.predict_proba_batch(larger)
        assert model.batches == [len(candidate_graphs), 8, 8, 3]
        assert len(model.seen) == len(candidate_graphs) + len(larger)
        for graph, proba in zip(candidate_graphs + larger, served):
            np.testing.assert_array_equal(proba, tiny_model.predict_proba(graph))

    def test_serving_starts_no_thread(self, tiny_model, candidate_graphs):
        """Every request runs on its caller's thread; constructing,
        scoring, swapping and closing leave the thread set unchanged."""
        before = set(threading.enumerate())
        server = InProcessServer(tiny_model, version="v1")
        assert set(threading.enumerate()) == before
        server.predict_proba_batch(candidate_graphs)
        server.swap_model(tiny_model, "v2")
        server.predict_proba_batch(candidate_graphs[:2])
        assert server.stats()["requests"] == 2
        server.close()
        assert set(threading.enumerate()) == before

    def test_concurrent_misses_on_one_graph_agree(
        self, tiny_model, candidate_graphs
    ):
        """A second request for a graph whose compute is in flight waits
        for it, then hits: the model sees the graph once, and the cache
        counts one miss, one hit and one entry."""
        graph = candidate_graphs[0]
        gate, entered = threading.Event(), threading.Event()

        class GatedModel(_RecordingModel):
            def predict_proba_batch(self, graphs):
                entered.set()
                assert gate.wait(30.0)
                return super().predict_proba_batch(graphs)

        model = GatedModel(tiny_model)
        server = InProcessServer(model, version="v1")
        real_cache = server.cache
        lookups = []
        second_lookup = threading.Event()

        class CountLookups:
            def get(self, key):
                lookups.append(key)
                if len(lookups) == 2:
                    second_lookup.set()
                return real_cache.get(key)

            def __getattr__(self, name):
                return getattr(real_cache, name)

        server.cache = CountLookups()
        results = [None, None]

        def client(slot: int) -> None:
            results[slot] = server.predict_proba(graph)

        threads = [threading.Thread(target=client, args=(n,)) for n in (0, 1)]
        try:
            threads[0].start()
            assert entered.wait(30.0)  # the first compute holds the graph
            threads[1].start()
            # The second request cannot even look the graph up while the
            # first one's compute is in flight.
            assert not second_lookup.wait(0.3)
        finally:
            gate.set()
            for thread in threads:
                if thread.ident is not None:  # started
                    thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        stats = real_cache.stats()
        assert len(model.seen) == 1
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["entries"] == 1
        for proba in results:
            np.testing.assert_array_equal(proba, tiny_model.predict_proba(graph))


# -- the socket server -------------------------------------------------------


@pytest.fixture()
def socket_server(tiny_model, tmp_path):
    server = PredictionServer(
        tiny_model,
        ServerConfig(socket_path=str(tmp_path / "pic.sock")),
        version="v1",
    ).start()
    yield server
    server.stop()


class TestSocketServer:
    def test_socket_predictions_are_byte_identical(
        self, socket_server, tiny_model, candidate_graphs
    ):
        client = SocketBackend(socket_server.config.socket_path)
        try:
            served = client.predict_proba_batch(candidate_graphs)
            for graph, proba in zip(candidate_graphs, served):
                np.testing.assert_array_equal(
                    proba, tiny_model.predict_proba(graph)
                )
            assert client.threshold == tiny_model.threshold
            assert client.version == "v1"
        finally:
            client.close()

    def test_status_and_ping(self, socket_server, tiny_model, candidate_graphs):
        client = SocketBackend(socket_server.config.socket_path)
        try:
            assert client.ping()
            client.predict_proba_batch(candidate_graphs)
            status = client.status()
            assert status["model_name"] == tiny_model.config.name
            assert status["vocab_size"] == tiny_model.config.vocab_size
            assert status["cache"]["misses"] == len(candidate_graphs)
            assert status["requests"] == 1
        finally:
            client.close()

    def test_server_survives_bad_requests(self, socket_server):
        client = SocketBackend(socket_server.config.socket_path)
        try:
            with pytest.raises(ServeError, match="unknown op"):
                client._request({"op": "bogus"})
            with pytest.raises(ServeError, match="malformed"):
                client._request({"op": "predict_batch", "graphs": "nope"})
            assert client.ping()  # the connection and server still work
        finally:
            client.close()

    def test_unreachable_server_raises(self, tmp_path):
        client = SocketBackend(str(tmp_path / "absent.sock"))
        with pytest.raises(ServeError, match="cannot reach"):
            client.predict_proba_batch([])  # empty short-circuits...
            client.status()  # ...but a real request fails
        client.close()

    def test_shutdown_op_stops_server(self, tiny_model, tmp_path):
        server = PredictionServer(
            tiny_model,
            ServerConfig(socket_path=str(tmp_path / "stop.sock")),
            version="v1",
        ).start()
        client = SocketBackend(server.config.socket_path)
        client.shutdown()
        server._thread.join(timeout=10.0)
        assert not server._thread.is_alive()


# -- the digest-addressed wire ------------------------------------------------


class _RecordingModel:
    """Delegates to a model and keeps every graph that reached it."""

    def __init__(self, model):
        self._model = model
        self.config = model.config
        self.threshold = model.threshold
        self.seen = []
        self.batches = []

    def predict_proba_batch(self, graphs):
        self.seen.extend(graphs)
        self.batches.append(len(graphs))
        return self._model.predict_proba_batch(graphs)


class TestWireCodec:
    @given(
        threads=st.sampled_from([2, 3]),
        irq=st.booleans(),
        memory_model=st.sampled_from(["sc", "tso"]),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=8, deadline=None)
    def test_round_trip_is_digest_equal_and_shares_templates(
        self, dataset_builder, tiny_model, threads, irq, memory_model, seed
    ):
        """Whatever batches a campaign on any scenario axis scores (the
        IRQ and TSO axes change execution, the thread axis the graphs),
        the public codec round-trips them through JSON text."""
        backend = _RecordingModel(tiny_model)
        explorer = MLPCTExplorer(
            dataset_builder,
            predictor=None,
            strategy=make_strategy("S1"),
            backend=backend,
            config=ExplorationConfig(
                num_threads=threads,
                irq=irq,
                memory_model=memory_model,
                execution_budget=1,
                inference_cap=12,
                proposal_pool=12,
                score_batch_size=6,
            ),
            seed=seed,
        )
        ctis = dataset_builder.corpus.sample_groups(
            rngmod.make_rng(seed), 2, threads
        )
        run_campaign(explorer, ctis)
        # One frame mixing both CTIs' templates, interleaved.
        pool = backend.seen
        batch = pool[::2] + pool[1::2]
        assert len({template_digest(graph) for graph in batch}) == 2
        payload = json.loads(json.dumps(encode_graphs(batch)))
        decoded = decode_graphs(payload)
        assert len(decoded) == len(batch)
        by_template = {}
        for sent, got in zip(batch, decoded):
            assert graph_digest(got) == graph_digest(sent)
            assert got.hints == sent.hints
            np.testing.assert_array_equal(got.hint_flags, sent.hint_flags)
            np.testing.assert_array_equal(got.edges, sent.edges)
            np.testing.assert_array_equal(
                tiny_model.predict_proba(got), tiny_model.predict_proba(sent)
            )
            shared = by_template.setdefault(template_digest(sent), got)
            assert got.token_ids is shared.token_ids
            assert got.node_types is shared.node_types
            assert got.base_cache is shared.base_cache
        first, second = by_template.values()
        assert first.base_cache is not second.base_cache

    def test_payload_without_bodies_is_not_self_contained(self, candidate_graphs):
        payload = encode_graphs(candidate_graphs, bodies=())
        assert "bodies" not in payload
        with pytest.raises(ProtocolError, match="no body"):
            decode_graphs(payload)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda body, graph: graph["schedule"].append([0, 10_000]),
            lambda body, graph: graph["schedule"].append([-1, 0]),
            lambda body, graph: graph["flags"][1].__setitem__(0, 3),
            lambda body, graph: graph["flags"][0].__setitem__(0, 10_000),
            lambda body, graph: graph["flags"][0].append(0),
            lambda body, graph: graph.__setitem__("t", 1),
            lambda body, graph: body["base_edges"][0].__setitem__(0, 10_000),
            lambda body, graph: body["base_edges"][0].__setitem__(2, 6),
            lambda body, graph: body["base_edges"][0].__setitem__(2, 4),
            lambda body, graph: body["token_ids"][0].__setitem__(0, 10**6),
            lambda body, graph: body["token_ids"][0].__setitem__(0, 2**70),
            lambda body, graph: body["token_ids"].pop(),
            lambda body, graph: body["node_threads"].pop(),
            lambda body, graph: body["node_types"].__setitem__(0, 2),
        ],
    )
    def test_out_of_range_content_is_a_protocol_error(
        self, tiny_model, candidate_graphs, corrupt
    ):
        payload = encode_graphs(candidate_graphs[:2])
        (body,) = payload["bodies"].values()
        corrupt(body, payload["graphs"][0])
        with pytest.raises(ProtocolError, match="malformed"):
            decode_graphs(payload, vocab_size=tiny_model.config.vocab_size)


def _status(server):
    status = server.backend.stats()
    return status["requests"], status["cache"]["hits"], status["cache"]["misses"]


class TestDigestAddressedWire:
    @pytest.fixture()
    def other_graphs(self, dataset_builder):
        """Candidates of a second CTI (a second template)."""
        entry_a, entry_b = dataset_builder.corpus.sample_pairs(
            rngmod.make_rng(4), 1
        )[0]
        pairs = propose_hint_pairs(
            rngmod.make_rng(12), entry_a.trace, entry_b.trace, 5
        )
        return [
            dataset_builder.graph_for(entry_a, entry_b, list(pair))
            for pair in pairs
        ]

    def test_two_clients_intern_one_template(
        self, tiny_model, candidate_graphs, tmp_path
    ):
        model = _RecordingModel(tiny_model)
        server = PredictionServer(
            model,
            ServerConfig(socket_path=str(tmp_path / "pic.sock")),
        ).start()
        clients = [SocketBackend(server.config.socket_path) for _ in range(2)]
        try:
            half = len(candidate_graphs) // 2
            served = clients[0].predict_proba_batch(candidate_graphs[:half])
            served += clients[1].predict_proba_batch(candidate_graphs[half:])
            assert len(server._templates) == 1
        finally:
            for client in clients:
                client.close()
            server.stop()
        assert len(model.seen) == len(candidate_graphs)
        assert len({id(graph.token_ids) for graph in model.seen}) == 1
        assert len({id(graph.base_cache) for graph in model.seen}) == 1
        for graph, proba in zip(candidate_graphs, served):
            np.testing.assert_array_equal(proba, tiny_model.predict_proba(graph))

    def test_eviction_drives_the_resend_and_accounting_stays_exact(
        self, socket_server, tiny_model, candidate_graphs, other_graphs, monkeypatch
    ):
        """With room for one template, alternating CTIs evict each other:
        every call is refused once and resent with the body. Results stay
        bitwise local, and each call is one request and one lookup per
        graph — the refused frame counts nothing."""
        monkeypatch.setattr(server_module, "_INTERN_CAP", 1)
        client = SocketBackend(socket_server.config.socket_path)
        refusals = []
        request = client._request

        def spy(payload):
            response = request(payload)
            if response.get("need_templates"):
                refusals.append(response["need_templates"])
            return response

        client._request = spy
        try:
            calls = [candidate_graphs, other_graphs, candidate_graphs, candidate_graphs]
            for number, graphs in enumerate(calls, start=1):
                before = _status(socket_server)
                served = client.predict_proba_batch(graphs)
                after = _status(socket_server)
                for graph, proba in zip(graphs, served):
                    np.testing.assert_array_equal(
                        proba, tiny_model.predict_proba(graph)
                    )
                assert after[0] == before[0] + 1
                assert (after[1] - before[1]) + (after[2] - before[2]) == len(graphs)
                assert len(socket_server._templates) == 1
                # The fourth call finds its template still interned.
                assert len(refusals) == min(number, 3)
            assert after[1] == 2 * len(candidate_graphs)  # calls 3 and 4 all hit
        finally:
            client.close()

    def test_structural_repeats_are_hits_across_frames_and_one_forward_within(
        self, tiny_model, dataset_builder, cti, candidate_graphs, sibling_hints, tmp_path
    ):
        """The digest drops the hints: a structural repeat in a later
        frame is a cache hit; two in one frame are two misses sharing
        one materialisation and one forward. Every graph sent is still
        exactly one lookup."""
        graph = next(
            g for g in candidate_graphs if sibling_hints(cti, g.hints) != g.hints
        )
        repeat = dataset_builder.graph_for(*cti, list(sibling_hints(cti, graph.hints)))
        other = next(
            g for g in candidate_graphs if schedule_key(g) != schedule_key(graph)
        )
        other_repeat = dataset_builder.graph_for(
            *cti, list(sibling_hints(cti, other.hints))
        )
        model = _RecordingModel(tiny_model)
        server = PredictionServer(
            model, ServerConfig(socket_path=str(tmp_path / "pic.sock"))
        ).start()
        client = SocketBackend(server.config.socket_path)
        try:
            first = client.predict_proba_batch([graph, repeat])
            assert _status(server) == (1, 0, 2)
            assert len(model.seen) == 1
            second = client.predict_proba_batch([repeat, other, other_repeat])
            assert _status(server) == (2, 1, 4)
            assert len(model.seen) == 2
        finally:
            client.close()
            server.stop()
        np.testing.assert_array_equal(first[0], first[1])
        np.testing.assert_array_equal(second[0], first[0])
        np.testing.assert_array_equal(second[1], second[2])
        np.testing.assert_array_equal(first[0], tiny_model.predict_proba(graph))

    def test_a_lying_graph_digest_is_rejected(
        self, socket_server, tiny_model, candidate_graphs
    ):
        client = SocketBackend(socket_server.config.socket_path)
        try:
            client.predict_proba_batch(candidate_graphs[:2])
            entries = len(socket_server.backend.cache)
            payload = encode_graphs(candidate_graphs[2:4])
            first, second = payload["graphs"]
            first["digest"], second["digest"] = second["digest"], first["digest"]
            with pytest.raises(ServeError, match="does not match its digest"):
                client._request({"op": "predict_batch", **payload})
            assert len(socket_server.backend.cache) == entries
            assert len(socket_server._templates) == 1
            # Nothing was poisoned: the honest frame scores correctly.
            honest = client.predict_proba_batch(candidate_graphs[2:4])
            for graph, proba in zip(candidate_graphs[2:4], honest):
                np.testing.assert_array_equal(proba, tiny_model.predict_proba(graph))
        finally:
            client.close()

    def test_a_lying_template_body_is_not_interned(
        self, socket_server, candidate_graphs
    ):
        client = SocketBackend(socket_server.config.socket_path)
        try:
            payload = encode_graphs(candidate_graphs[:2])
            (body,) = payload["bodies"].values()
            body["token_ids"][0][0] += 1
            with pytest.raises(ServeError, match="template body does not match"):
                client._request({"op": "predict_batch", **payload})
            assert len(socket_server._templates) == 0
            assert len(socket_server.backend.cache) == 0
            assert _status(socket_server) == (0, 0, 0)
        finally:
            client.close()

    def test_a_malformed_frame_fails_only_its_sender(
        self, tiny_model, candidate_graphs, tmp_path
    ):
        """A bad graph is refused on its sender's connection thread; it
        once reached a shared compute batch and failed every request
        gathered into it."""
        server = PredictionServer(
            tiny_model, ServerConfig(socket_path=str(tmp_path / "pic.sock"))
        ).start()
        bad = encode_graphs(candidate_graphs[:1])
        bad["graphs"][0]["schedule"].append([0, 10_000])
        barrier = threading.Barrier(2)
        outcome = {}

        def malformed():
            client = SocketBackend(server.config.socket_path)
            barrier.wait(timeout=30.0)
            try:
                client._request({"op": "predict_batch", **bad})
            except ServeError as error:
                outcome["bad"] = str(error)
            finally:
                client.close()

        def honest():
            client = SocketBackend(server.config.socket_path)
            barrier.wait(timeout=30.0)
            try:
                outcome["good"] = client.predict_proba_batch(candidate_graphs[1:3])
            except ServeError as error:
                outcome["good"] = error
            finally:
                client.close()

        threads = [threading.Thread(target=malformed), threading.Thread(target=honest)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            server.stop()
        assert "malformed" in outcome["bad"]
        local = tiny_model.predict_proba_batch(candidate_graphs[1:3])
        for a, b in zip(outcome["good"], local):
            np.testing.assert_array_equal(a, b)

    def test_oversize_response_does_not_desynchronise_the_connection(self, tmp_path):
        """Regression: a fatal frame used to leave its unread body on a
        kept connection, so the next request parsed payload bytes as a
        length header."""
        oversize = server_module._LENGTH.pack(server_module.MAX_FRAME_BYTES + 1)

        def reply(wfile):
            wfile.write(oversize + b"AAAA" * 64)
            wfile.flush()

        with _FakeServer(str(tmp_path / "fake.sock"), reply) as fake:
            client = SocketBackend(fake.path, timeout=10.0)
            try:
                with pytest.raises(ProtocolError, match="exceeds"):
                    client._request({"op": "ping"})
                assert client.ping()
            finally:
                client.close()
        assert fake.connections == 2

    @pytest.mark.parametrize("damage", ["truncated", "not base64", "wrong length"])
    def test_undecodable_probabilities_are_fatal_and_reconnect(
        self, tmp_path, candidate_graphs, damage
    ):
        """A reply whose bytes are not one float64 per node sent is a
        protocol error; the client drops the connection, so the next
        request starts on a fresh stream."""
        graphs = candidate_graphs[:2]
        nodes = sum(graph.num_nodes for graph in graphs)
        packed = server_module._pack_probas([np.zeros(nodes)])
        probas = {
            "truncated": packed[:-3],
            "not base64": "!" * len(packed),
            "wrong length": server_module._pack_probas([np.zeros(nodes - 1)]),
        }[damage]

        def reply(wfile):
            server_module.write_frame(
                wfile, {"ok": True, "version": "v1", "probas_f64le": probas}
            )

        with _FakeServer(str(tmp_path / "fake.sock"), reply) as fake:
            client = SocketBackend(fake.path, timeout=10.0)
            try:
                with pytest.raises(ProtocolError, match="probabilit"):
                    client.predict_proba_batch(graphs)
                assert client._sock is None
                assert client.ping()
            finally:
                client.close()
        assert fake.connections == 2

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_any_float64_bit_pattern_crosses_the_socket(
        self, bits_server, candidate_graphs, data
    ):
        server, model = bits_server
        graphs = candidate_graphs[: data.draw(st.integers(1, 3))]
        total = sum(graph.num_nodes for graph in graphs)
        special = st.sampled_from(
            [
                0x0000000000000000,  # +0.0
                0x8000000000000000,  # -0.0
                0x0000000000000001,  # smallest subnormal
                0x800FFFFFFFFFFFFF,  # largest negative subnormal
                0x7FF0000000000000,  # +inf
                0xFFF0000000000000,  # -inf
                0x7FF8000000000000,  # quiet NaN
                0x7FF0000000000001,  # signalling NaN, payload 1
                0xFFFABCDEF0123456,  # negative NaN with payload bits
            ]
        )
        words = data.draw(
            st.lists(
                st.one_of(special, st.integers(0, 2**64 - 1)),
                min_size=total,
                max_size=total,
            )
        )
        model.bits = np.array(words, dtype=np.uint64)
        client = SocketBackend(server.config.socket_path)
        try:
            served = client.predict_proba_batch(graphs)
        finally:
            client.close()
        assert [len(proba) for proba in served] == [g.num_nodes for g in graphs]
        assert all(proba.dtype == np.float64 for proba in served)
        np.testing.assert_array_equal(
            np.concatenate(served).view(np.uint64), model.bits
        )


class _BitsModel:
    """Answers every batch with ``bits`` reinterpreted as float64, split
    by node count, whatever the graphs say."""

    def __init__(self, model):
        self.config = model.config
        self.threshold = model.threshold
        self.bits = np.zeros(0, dtype=np.uint64)

    def predict_proba_batch(self, graphs):
        values = self.bits.view(np.float64)
        sizes = np.cumsum([graph.num_nodes for graph in graphs])[:-1]
        return np.split(values, sizes)


@pytest.fixture(scope="module")
def bits_server(tiny_model, tmp_path_factory):
    """A real server over a :class:`_BitsModel`, with a one-byte cache so
    every example's bits are computed, never served from a hit."""
    model = _BitsModel(tiny_model)
    path = str(tmp_path_factory.mktemp("bits") / "bits.sock")
    server = PredictionServer(
        model, ServerConfig(socket_path=path, cache_bytes=1)
    ).start()
    yield server, model
    server.stop()


class _FakeServer:
    """A one-listener stand-in for a prediction server: the first request
    gets ``reply(wfile)``, the second ``{"ok": true}``. Counts accepted
    connections."""

    def __init__(self, path, reply):
        self.path = path
        self._reply = reply
        self.connections = 0
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(2)
        self._listener.settimeout(30.0)
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        answered = 0
        while answered < 2:
            connection, _ = self._listener.accept()
            self.connections += 1
            with connection, connection.makefile("rb") as rfile, (
                connection.makefile("wb")
            ) as wfile:
                try:
                    while answered < 2:
                        server_module.read_frame(rfile)
                        if answered == 0:
                            self._reply(wfile)
                        else:
                            server_module.write_frame(wfile, {"ok": True})
                        answered += 1
                except (EOFError, OSError):
                    continue

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._thread.join(timeout=30.0)
        self._listener.close()
        assert not self._thread.is_alive()


# -- registry mutation racing live hot-swaps ---------------------------------


class TestRegistryHotSwapRaces:
    """The continuous-learning promotion path mutates the registry from
    one process while another serves from it. Whatever interleaving the
    OS picks: a manifest read is never torn, and a served batch is never
    mixed-version — every prediction in one response comes from the one
    model version the response names."""

    def test_refresh_under_activation_churn_is_never_torn(
        self, tmp_path, tiny_model
    ):
        writer = ModelRegistry(str(tmp_path))
        writer.publish(tiny_model, version="v1", activate=True)
        writer.publish(tiny_model, version="v2", activate=True)
        reader = ModelRegistry(str(tmp_path))
        stop = threading.Event()

        def churn():
            flip = True
            while not stop.is_set():
                writer.activate("v1" if flip else "v2")
                flip = not flip

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(200):
                reader.refresh()  # atomic manifest: old or new, never torn
                active = reader.active_version
                assert active in {"v1", "v2"}
                assert reader.record(active).version == active
        finally:
            stop.set()
            thread.join()

    def test_swap_at_first_lookup_waits_for_a_single_version_reply(
        self, tiny_model, candidate_graphs
    ):
        # The worst interleaving, injected deterministically: a swap
        # starts on another thread right after the request pinned its
        # version. It must block until the request has returned wholly
        # v1; the next request is wholly v2.
        from repro.ml.pic import PICModel

        other = PICModel(tiny_model.config, seed=99)
        server = InProcessServer(tiny_model, version="v1")
        real_cache = server.cache
        swapped = threading.Event()

        def swap():
            server.swap_model(other, "v2")
            swapped.set()

        swapper = threading.Thread(target=swap)
        blocked = []

        class SwapOnFirstGet:
            def get(self, key):
                if not blocked:
                    swapper.start()
                    blocked.append(not swapped.wait(0.3))
                return real_cache.get(key)

            def __getattr__(self, name):
                return getattr(real_cache, name)

        server.cache = SwapOnFirstGet()
        try:
            version, probas = server.predict_proba_batch_versioned(
                candidate_graphs
            )
        finally:
            swapper.join(timeout=30.0)
        assert blocked == [True]
        assert version == "v1"
        for graph, proba in zip(candidate_graphs, probas):
            np.testing.assert_array_equal(proba, tiny_model.predict_proba(graph))
        assert swapped.is_set() and server.version == "v2"
        version, probas = server.predict_proba_batch_versioned(candidate_graphs)
        assert version == "v2" and server.observed_version == "v2"
        for graph, proba in zip(candidate_graphs, probas):
            np.testing.assert_array_equal(proba, other.predict_proba(graph))

    def test_activation_churn_never_serves_a_mixed_version_batch(
        self, tmp_path, tiny_model, candidate_graphs
    ):
        from repro.ml.pic import PICModel

        other = PICModel(tiny_model.config, seed=99)
        registry = ModelRegistry(str(tmp_path / "registry"))
        registry.publish(tiny_model, version="v1", activate=True)
        registry.publish(other, version="v2", activate=True)
        registry.activate("v1")
        expected = {
            "v1": [tiny_model.predict_proba(g) for g in candidate_graphs],
            "v2": [other.predict_proba(g) for g in candidate_graphs],
        }
        server = PredictionServer(
            tiny_model,
            ServerConfig(socket_path=str(tmp_path / "race.sock")),
            version="v1",
            model_registry=registry,
        ).start()
        # The "promoting process": a second registry handle on the same
        # directory, flapping the active version as fast as it can.
        mutator = ModelRegistry(str(tmp_path / "registry"))
        stop = threading.Event()

        def churn():
            flip = True
            while not stop.is_set():
                mutator.activate("v2" if flip else "v1")
                flip = not flip

        thread = threading.Thread(target=churn)
        thread.start()
        client = SocketBackend(server.config.socket_path)
        swapped = 0
        try:
            for _ in range(30):
                response = client.swap()  # follow whatever is active now
                assert response["version"] in {"v1", "v2"}
                swapped += int(response["swapped"])
                served = client.predict_proba_batch(candidate_graphs)
                version = client.observed_version
                assert version in {"v1", "v2"}
                for proba, want in zip(served, expected[version]):
                    np.testing.assert_array_equal(proba, want)
        finally:
            stop.set()
            thread.join()
            client.close()
            server.stop()
        # The drill only means something if swaps actually happened.
        assert swapped > 0


# -- GNN concurrency regression ----------------------------------------------


class TestGNNConcurrentReaders:
    def test_published_adjacency_is_readonly(self, candidate_graphs):
        from repro.graphs.ctgraph import EDGE_SCHEDULE

        adjacency = prepare_adjacency(candidate_graphs[0])
        checked = 0
        for edge_type, (forward, reverse) in adjacency.items():
            if edge_type == EDGE_SCHEDULE:
                continue  # per-graph, never published into the template
            for matrix in (forward, reverse):
                assert not matrix.data.flags.writeable
                assert not matrix.indices.flags.writeable
                assert not matrix.indptr.flags.writeable
            checked += 1
        assert checked > 0

    def test_concurrent_batched_forward_matches_serial(self, candidate_graphs):
        """Regression: the cached ``_BatchPlan``'s layer buffers used to
        be shared mutable state, so two threads scoring the same
        template's candidate pool corrupted each other's activations.
        Buffers are per-thread now; concurrent results must be bitwise
        equal to serial ones."""
        gnn = RelationalGCN(GNNConfig(hidden_dim=16, num_layers=2), seed=7)
        graphs = list(candidate_graphs)
        n_total = sum(graph.num_nodes for graph in graphs)
        rng = np.random.default_rng(0)
        inputs = [rng.normal(size=(n_total, 16)) for _ in range(6)]
        expected = [gnn.forward_numpy_batch(h.copy(), graphs) for h in inputs]
        mismatches = []
        barrier = threading.Barrier(len(inputs))

        def worker(index: int) -> None:
            barrier.wait(timeout=30.0)
            for _ in range(5):
                got = gnn.forward_numpy_batch(inputs[index].copy(), graphs)
                if not np.array_equal(got, expected[index]):
                    mismatches.append(index)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(inputs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not mismatches


# -- served campaigns are indistinguishable from local ones ------------------


def _campaign(dataset_builder, predictor, ctis, backend=None):
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
    return run_campaign(explorer, ctis)


def _assert_campaigns_identical(left, right):
    assert campaign_result_to_dict(left) == campaign_result_to_dict(right)


class TestServedCampaignEquivalence:
    @pytest.fixture(scope="class")
    def ctis(self, dataset_builder):
        return dataset_builder.corpus.sample_pairs(rngmod.make_rng(3), 3)

    @pytest.fixture(scope="class")
    def local_campaign(self, dataset_builder, tiny_model, ctis):
        return _campaign(dataset_builder, tiny_model, ctis)

    def test_local_backend_campaign_is_identical(
        self, dataset_builder, tiny_model, ctis, local_campaign
    ):
        served = _campaign(dataset_builder, tiny_model, ctis, backend=tiny_model)
        _assert_campaigns_identical(local_campaign, served)

    def test_inprocess_campaign_is_identical(
        self, dataset_builder, tiny_model, ctis, local_campaign
    ):
        backend = InProcessServer(tiny_model, version="v1")
        try:
            served = _campaign(
                dataset_builder, tiny_model, ctis, backend=backend
            )
        finally:
            backend.close()
        _assert_campaigns_identical(local_campaign, served)

    def test_socket_campaign_is_identical(
        self, dataset_builder, tiny_model, ctis, local_campaign, tmp_path_factory
    ):
        socket_path = str(
            tmp_path_factory.mktemp("serve") / "campaign.sock"
        )
        server = PredictionServer(
            tiny_model, ServerConfig(socket_path=socket_path), version="v1"
        ).start()
        backend = SocketBackend(socket_path)
        try:
            # predictor=None: the campaign side has no local model at all.
            served = _campaign(dataset_builder, None, ctis, backend=backend)
        finally:
            backend.close()
            server.stop()
        _assert_campaigns_identical(local_campaign, served)


# -- scorer seam + CLI surface ----------------------------------------------


class TestScorerSeam:
    def test_scorer_requires_predictor_or_backend(self):
        with pytest.raises(ValueError):
            CandidateScorer(None)

    def test_backend_is_the_scoring_target(self, tiny_model, candidate_graphs):
        scorer = CandidateScorer(None, batch_size=4, backend=tiny_model)
        assert scorer.target is tiny_model and scorer.batched
        direct = tiny_model.predict_proba_batch(candidate_graphs)
        for a, b in zip(direct, scorer.iter_scores(candidate_graphs, "proba")):
            np.testing.assert_array_equal(a, b)

    def test_no_backend_keeps_direct_path(self, tiny_model):
        scorer = CandidateScorer(tiny_model, batch_size=4)
        assert scorer.target is tiny_model and scorer.backend is None


class TestServeCli:
    def test_serve_and_campaign_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "serve",
                "start",
                "--socket",
                "/tmp/x.sock",
                "--cache-mb",
                "8",
            ]
        )
        assert args.command == "serve" and args.action == "start"
        assert args.cache_mb == 8
        for action in ("stop", "status"):
            args = parser.parse_args(["serve", action, "--socket", "/tmp/x.sock"])
            assert args.action == action
        args = parser.parse_args(
            ["campaign", "--serve-socket", "/tmp/x.sock", "--ctis", "1"]
        )
        assert args.serve_socket == "/tmp/x.sock"

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--serve", "--ctis", "1"],
            ["serve", "start", "--socket", "/tmp/x.sock", "--score-threads", "2"],
            ["serve", "start", "--socket", "/tmp/x.sock", "--max-wait-ms", "1"],
            ["serve", "start", "--socket", "/tmp/x.sock", "--max-batch", "8"],
            ["campaign", "--cascade", "--ctis", "1"],
            ["campaign", "--filter-recall", "0.9", "--ctis", "1"],
        ],
        ids=[
            "campaign --serve",
            "serve start --score-threads",
            "serve start --max-wait-ms",
            "serve start --max-batch",
            "campaign --cascade",
            "campaign --filter-recall",
        ],
    )
    def test_deleted_serve_modes_are_refused(self, argv, capsys, monkeypatch):
        """In-process ``campaign --serve``, ``--score-threads`` sharding,
        the batching window, the micro-batcher's ``--max-batch`` and the
        two-stage scoring cascade are gone:
        an old command line exits 2 before building anything."""
        from repro.cli import main
        from repro.core import Snowcat

        def no_deployment(*args, **kwargs):
            raise AssertionError("a deployment was built for a refused command")

        monkeypatch.setattr(Snowcat, "standard", no_deployment)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err
