"""Perf bench for PR 2's batched scoring engine + parallel execution.

Three measurements against the committed ``results/obs_stage_breakdown.txt``
baseline (single-graph inference, serial execution):

1. **Scoring throughput** — graphs scored per second one graph per call
   (``predict_proba``, a batch of one) vs ``predict_proba_batch`` in
   batches of 8, over one CTI's candidate pool (the MLPCT hot loop
   shape). Both are the same layer loop, so the ratio is what batching
   amortises (per-call dispatch), reported and not gated. Batches of 8
   under float32 are gated to beat batches of 8 under float64. Each
   timing repeat scores a *freshly stamped* pool, as a campaign does,
   with the template-level caches warm.
2. **Structural repeats** — a real 1600-candidate pool holds hint
   tuples that land in the same blocks and so stamp the same graph; the
   engine scores each distinct graph once. Reported as distinct / pool
   size and the *effective* candidates per second. The pool of
   measurement 1 is deduplicated first, so its rows keep measuring the
   forward pass and this row alone measures the memo.
3. **Campaign stage share** — the baseline pipeline re-run with batched
   scoring; the campaign stage's share of wall clock should drop below
   the baseline's 55.2%.

``REPRO_BENCH_SMOKE=1`` shrinks every size so CI can run this as a quick
report and float32 gate; the committed results file is produced by a
full run.
"""

from __future__ import annotations

import os
import time

from repro import obs
from repro import rng as rngmod
from repro.core import ExplorationConfig, Snowcat, SnowcatConfig, run_campaign
from repro.core.scoring import CandidateScorer
from repro.execution.pct import propose_hint_pairs
from repro.graphs.ctgraph import schedule_key
from repro.kernel import KernelConfig, build_kernel
from repro.obs import MemorySink, MetricsRegistry
from repro.obs.report import collect_spans, stage_rows
from repro.reporting import format_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Campaign share of the committed single-graph baseline
#: (results/obs_stage_breakdown.txt, pinned to score_batch_size=1).
BASELINE_CAMPAIGN_SHARE = 0.552

POOL_SIZE = 32 if SMOKE else 160
#: The paper's per-CTI candidate pool (§5.3.1), for the repeats row.
REAL_POOL_SIZE = 160 if SMOKE else 1600
BATCH_SIZE = 8
TIMING_REPEATS = 2 if SMOKE else 8

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
        score_batch_size=BATCH_SIZE,
    ),
)


def _interleaved_totals(scorers, stamp_pool, repeats):
    """Total seconds each scorer spends over ``repeats`` pools, interleaved.

    Each repeat scores its own freshly stamped pool, matching the
    campaign hot loop: every candidate graph is scored exactly once,
    with the per-template caches warm.
    Alternating the paths within each repeat means ambient load on the
    machine biases both measurements equally, and summing over repeats
    (rather than best-of) keeps each path's real allocator/GC cost in
    its steady-state throughput.
    """
    totals = [0.0] * len(scorers)
    for _ in range(repeats):
        for i, score in enumerate(scorers):
            pool = stamp_pool()
            started = time.perf_counter()
            score(pool)
            totals[i] += time.perf_counter() - started
    return totals


def test_scoring_throughput(report):
    kernel = build_kernel(KernelConfig(), seed=11)
    snowcat = Snowcat(kernel, PIPELINE_CONFIG)
    snowcat.train()
    model = snowcat.require_model()

    # One CTI's candidate pool: the shape of the MLPCT hot loop.
    entry_a, entry_b = snowcat.graphs.corpus.sample_pairs(
        rngmod.make_rng(11), 1
    )[0]
    def stamp(hint_pairs):
        return [
            snowcat.graphs.graph_for(entry_a, entry_b, list(pair))
            for pair in hint_pairs
        ]

    def distinct(hint_pairs):
        """One pair per distinct stamped graph (first occurrence)."""
        first = {}
        for graph, pair in zip(stamp(hint_pairs), hint_pairs):
            first.setdefault(schedule_key(graph), pair)
        return list(first.values())

    pairs = distinct(
        propose_hint_pairs(
            rngmod.make_rng(11), entry_a.trace, entry_b.trace, POOL_SIZE
        )
    )

    def stamp_pool():
        return stamp(pairs)

    # Warm template-level caches (base features, batch plans of one and
    # of BATCH_SIZE), so the comparison measures steady-state scoring, not
    # one-time setup. Every timed repeat then gets fresh graph objects.
    warm = stamp_pool()
    model.predict_proba(warm[0])
    scorer = CandidateScorer(model, batch_size=BATCH_SIZE)

    def scored(pool, _s=scorer):
        return list(_s.iter_scores(pool, "proba"))

    scored(warm[:BATCH_SIZE])

    def scored_f32(pool):
        model.set_inference_mode("float32")
        try:
            scored(pool)
        finally:
            model.set_inference_mode("float64")

    scored_f32(warm[:BATCH_SIZE])  # build the float32 weight/plan casts

    serial_total, batched_total, batched32_total = _interleaved_totals(
        [
            lambda pool: [model.predict_proba(graph) for graph in pool],
            scored,
            scored_f32,
        ],
        stamp_pool,
        TIMING_REPEATS,
    )
    serial_rate = len(pairs) * TIMING_REPEATS / serial_total
    batched_rate = len(pairs) * TIMING_REPEATS / batched_total
    batched32_rate = len(pairs) * TIMING_REPEATS / batched32_total
    speedup = batched_rate / serial_rate

    # Batch-size sweep under both dtypes: the data behind
    # DEFAULT_BATCH_SIZE's "8 is fastest" claim in core/scoring.py.
    sweep_rows = []
    for size in (4, 8, 16):
        sweep_scorer = CandidateScorer(model, batch_size=size)

        def sweep32(pool, _s=sweep_scorer):
            model.set_inference_mode("float32")
            try:
                scored(pool, _s)
            finally:
                model.set_inference_mode("float64")

        f64_total, f32_total = _interleaved_totals(
            [lambda pool, _s=sweep_scorer: scored(pool, _s), sweep32],
            stamp_pool,
            1 if SMOKE else 2,
        )
        repeats = 1 if SMOKE else 2
        sweep_rows.append(
            {
                "batch": size,
                "float64 g/s": round(len(pairs) * repeats / f64_total, 1),
                "float32 g/s": round(len(pairs) * repeats / f32_total, 1),
            }
        )

    # Structural repeats: a real candidate pool, scored as a campaign
    # scores it (the engine sends each distinct graph to the model once).
    real_pairs = propose_hint_pairs(
        rngmod.make_rng(11), entry_a.trace, entry_b.trace, REAL_POOL_SIZE
    )
    real_distinct = len(distinct(real_pairs))
    (real_total,) = _interleaved_totals(
        [scored], lambda: stamp(real_pairs), 1 if SMOKE else 2
    )
    effective_rate = len(real_pairs) * (1 if SMOKE else 2) / real_total

    # Campaign stage share with batched scoring, measured the same way as
    # the committed baseline breakdown.
    with obs.use_registry(MetricsRegistry(sink=MemorySink())) as registry:
        campaign_snowcat = Snowcat(
            build_kernel(KernelConfig(), seed=11), PIPELINE_CONFIG
        )
        campaign_snowcat.train()
        ctis = campaign_snowcat.cti_stream(2 if SMOKE else 4)
        for explorer in (
            campaign_snowcat.pct_explorer(),
            campaign_snowcat.mlpct_explorer("S1"),
        ):
            run_campaign(explorer, ctis)
        registry.close()
    rows = stage_rows(collect_spans(registry.sink.events))
    self_total = sum(row["self s"] for row in rows) or 1.0
    shares = {row["stage"]: row["self s"] / self_total for row in rows}
    campaign_share = shares.get("campaign", 0.0)

    text = "\n".join(
        [
            "scoring throughput — batches of 8 vs one graph per call "
            + ("(smoke run)" if SMOKE else "(full run)"),
            "",
            format_table(
                [
                    {
                        "path": "batch of one (predict_proba)",
                        "graphs/s": round(serial_rate, 1),
                    },
                    {
                        "path": f"batched (batch={BATCH_SIZE})",
                        "graphs/s": round(batched_rate, 1),
                    },
                    {
                        "path": f"batched float32 (batch={BATCH_SIZE})",
                        "graphs/s": round(batched32_rate, 1),
                    },
                ],
                title=f"candidate pool of {len(pairs)} distinct graphs, "
                "one CTI template",
            ),
            "",
            f"batching: {speedup:.2f}x graphs scored per second "
            f"({batched32_rate / serial_rate:.2f}x with float32); one "
            "layer loop either way, so this is per-call overhead amortised",
            "",
            format_table(
                sweep_rows,
                title="batch-size sweep (graphs/s; DEFAULT_BATCH_SIZE=8)",
            ),
            "",
            format_table(
                [
                    {
                        "pool": len(real_pairs),
                        "distinct": real_distinct,
                        "share": f"{real_distinct / len(real_pairs):.1%}",
                        "effective candidates/s": round(effective_rate, 1),
                    }
                ],
                title="structural repeats (real pool; each distinct graph "
                f"scored once, batch={BATCH_SIZE})",
            ),
            "",
            format_table(
                [
                    {
                        "stage": row["stage"],
                        "self s": round(row["self s"], 3),
                        "share": row["share"],
                    }
                    for row in rows
                ],
                title="stage breakdown with batched scoring",
            ),
            "",
            f"campaign stage share: {campaign_share:.1%} "
            f"(baseline obs_stage_breakdown.txt: "
            f"{BASELINE_CAMPAIGN_SHARE:.1%})",
        ]
    )
    report("scoring_throughput", text)

    assert batched32_rate > batched_rate, (
        f"batched float32 ({batched32_rate:.1f} graphs/s) did not beat "
        f"batched float64 ({batched_rate:.1f} graphs/s)"
    )
    if not SMOKE:
        assert campaign_share < BASELINE_CAMPAIGN_SHARE, (
            f"campaign share {campaign_share:.1%} did not drop below the "
            f"single-graph baseline {BASELINE_CAMPAIGN_SHARE:.1%}"
        )
