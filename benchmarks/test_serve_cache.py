"""Perf bench for the shared inference service's prediction cache.

Measures one CTI candidate pool scored through an
:class:`~repro.serve.InProcessServer` with a cold cache (every request is
a real model compute) and again with a warm cache (every request is a
content-addressed hit), against the plain local batched path as the
reference. The service's pitch is that repeated scoring work — re-scored
campaigns, overlapping candidate pools, multiple clients probing the
same CTIs — collapses to cache lookups; the gate is a >= 2x warm-over-
cold speedup.

A socket round trip is also timed for the warm pool, so the results file
records what the wire protocol costs relative to in-process serving.

``REPRO_BENCH_SMOKE=1`` shrinks sizes so CI can run this as a quick
regression gate; the committed results file comes from a full run.
"""

from __future__ import annotations

import os
import time

from repro import rng as rngmod
from repro.core import ExplorationConfig, Snowcat, SnowcatConfig
from repro.execution.pct import propose_hint_pairs
from repro.kernel import KernelConfig, build_kernel
from repro.reporting import format_table
from repro.serve import InProcessServer, PredictionServer, ServerConfig, SocketBackend

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

POOL_SIZE = 24 if SMOKE else 128
TIMING_REPEATS = 2 if SMOKE else 6
MIN_WARM_SPEEDUP = 2.0

PIPELINE_CONFIG = SnowcatConfig(
    seed=11,
    corpus_rounds=80 if SMOKE else 150,
    dataset_ctis=6 if SMOKE else 12,
    train_interleavings=4,
    evaluation_interleavings=4,
    pretrain_epochs=1,
    epochs=1 if SMOKE else 3,
    exploration=ExplorationConfig(
        execution_budget=20,
        inference_cap=160,
        proposal_pool=160,
        score_batch_size=8,
    ),
)


def _time_pool(score, pool, repeats):
    total = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        score(pool)
        total += time.perf_counter() - started
    return total


def test_serve_cache_speedup(report, tmp_path):
    kernel = build_kernel(KernelConfig(), seed=11)
    snowcat = Snowcat(kernel, PIPELINE_CONFIG)
    snowcat.train()
    model = snowcat.require_model()

    entry_a, entry_b = snowcat.graphs.corpus.sample_pairs(
        rngmod.make_rng(11), 1
    )[0]
    pairs = propose_hint_pairs(
        rngmod.make_rng(11), entry_a.trace, entry_b.trace, POOL_SIZE
    )
    pool = [
        snowcat.graphs.graph_for(entry_a, entry_b, list(pair)) for pair in pairs
    ]

    # Warm the template-level model caches so "cold" below means a cold
    # *prediction cache*, not one-time encoder/adjacency setup.
    model.predict_proba_batch(pool[:8])

    local_total = _time_pool(model.predict_proba_batch, pool, TIMING_REPEATS)

    server = InProcessServer(model, version="bench")
    try:
        cold_total = _time_pool(server.predict_proba_batch, pool, 1)
        warm_total = _time_pool(server.predict_proba_batch, pool, TIMING_REPEATS)
        cache_stats = server.stats()["cache"]
    finally:
        server.close()

    socket_path = str(tmp_path / "bench.sock")
    socket_server = PredictionServer(
        model, ServerConfig(socket_path=socket_path), version="bench"
    ).start()
    client = SocketBackend(socket_path)
    try:
        client.predict_proba_batch(pool)  # cold pass fills the server cache
        socket_warm_total = _time_pool(
            client.predict_proba_batch, pool, TIMING_REPEATS
        )
    finally:
        client.close()
        socket_server.stop()

    cold_rate = POOL_SIZE / cold_total
    warm_rate = POOL_SIZE * TIMING_REPEATS / warm_total
    local_rate = POOL_SIZE * TIMING_REPEATS / local_total
    socket_warm_rate = POOL_SIZE * TIMING_REPEATS / socket_warm_total
    warm_speedup = warm_rate / cold_rate

    text = "\n".join(
        [
            "prediction cache — cold vs warm serving "
            + ("(smoke run)" if SMOKE else "(full run)"),
            "",
            format_table(
                [
                    {"path": "local predict_proba_batch", "graphs/s": round(local_rate, 1)},
                    {"path": "served, cold cache", "graphs/s": round(cold_rate, 1)},
                    {"path": "served, warm cache", "graphs/s": round(warm_rate, 1)},
                    {"path": "socket, warm cache", "graphs/s": round(socket_warm_rate, 1)},
                ],
                title=f"candidate pool of {POOL_SIZE} graphs, one CTI template",
            ),
            "",
            f"warm-over-cold speedup: {warm_speedup:.1f}x",
            f"cache: {cache_stats['hits']} hits / {cache_stats['misses']} misses "
            f"({cache_stats['bytes']} bytes, hit rate {cache_stats['hit_rate']:.1%})",
        ]
    )
    report("serve_cache", text)

    assert cache_stats["misses"] == POOL_SIZE, "cold pass should miss exactly once per graph"
    assert cache_stats["hits"] == POOL_SIZE * TIMING_REPEATS
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm cache only {warm_speedup:.2f}x over cold (need {MIN_WARM_SPEEDUP}x)"
    )
