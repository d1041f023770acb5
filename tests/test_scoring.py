"""Batched scoring engine + parallel execution equivalence tests.

The whole point of PR 2's engine is that batching and parallelism are
*pure* performance knobs: every test here pins some flavour of "the fast
path computes exactly what the slow path computed".
"""

import hashlib
import itertools
import json
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro import rng as rngmod
from repro.core.mlpct import (
    ExplorationConfig,
    MLPCTExplorer,
    PCTExplorer,
    run_campaign,
)
from repro.core.scoring import (
    CandidateScorer,
    iter_score_candidates,
    select,
)
from repro.core.strategies import TargetBlocks, make_strategy
from repro.execution.parallel import (
    CTTask,
    SerialCTRunner,
    make_runner,
)
from repro.execution.pct import propose_hint_pairs
from repro.graphs.ctgraph import schedule_key
from repro.ml.baselines import AllPositive, FairCoin
from repro.ml.pic import stable_sigmoid
from repro.obs import MemorySink, MetricsRegistry
from repro.resilience.journal import (
    CampaignJournal,
    campaign_result_to_dict,
    canonical_json,
)
from repro.resilience.supervisor import SupervisedRunner, SupervisionPolicy


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


class TestStableSigmoid:
    def test_extreme_logits_stay_finite(self):
        with np.errstate(over="raise", invalid="raise"):
            out = stable_sigmoid(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_matches_naive_form_in_safe_range(self):
        z = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(
            stable_sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=0, atol=1e-15
        )

    def test_scalar_and_shape_preserved(self):
        assert stable_sigmoid(np.zeros((3, 2))).shape == (3, 2)
        assert float(stable_sigmoid(np.array(0.0))) == 0.5


class TestBatchedPredictions:
    def test_batch_matches_serial_proba(self, tiny_model, candidate_graphs):
        serial = [tiny_model.predict_proba(g) for g in candidate_graphs]
        batched = tiny_model.predict_proba_batch(candidate_graphs)
        assert len(batched) == len(serial)
        for one, many in zip(serial, batched):
            np.testing.assert_allclose(many, one, rtol=0, atol=1e-9)

    def test_singleton_and_empty_batches(self, tiny_model, candidate_graphs):
        assert tiny_model.predict_proba_batch([]) == []
        only = tiny_model.predict_proba_batch(candidate_graphs[:1])[0]
        np.testing.assert_array_equal(
            only, tiny_model.predict_proba(candidate_graphs[0])
        )

    def test_predict_batch_booleans_match(self, tiny_model, candidate_graphs):
        serial = [tiny_model.predict(g) for g in candidate_graphs]
        for one, many in zip(serial, tiny_model.predict_batch(candidate_graphs)):
            np.testing.assert_array_equal(many, one)

    def test_dataflow_batch_matches_serial(self, tiny_model, candidate_graphs):
        edge_rows = [
            np.arange(min(3, graph.num_edges), dtype=np.int64)
            for graph in candidate_graphs
        ]
        serial = [
            tiny_model.predict_dataflow_proba(graph, rows)
            for graph, rows in zip(candidate_graphs, edge_rows)
        ]
        batched = tiny_model.predict_dataflow_proba_batch(
            candidate_graphs, edge_rows
        )
        for one, many in zip(serial, batched):
            np.testing.assert_allclose(many, one, rtol=0, atol=1e-9)


class TestCandidateScorer:
    def test_batched_property(self, tiny_model):
        assert CandidateScorer(tiny_model, batch_size=32).batched
        assert not CandidateScorer(tiny_model, batch_size=1).batched
        assert not CandidateScorer(FairCoin(seed=1), batch_size=32).batched

    @pytest.mark.parametrize("batch_size", [1, 3, 32])
    def test_score_proba_any_chunking(
        self, tiny_model, candidate_graphs, batch_size
    ):
        """Ragged chunking (7 graphs in batches of 3), singletons, and a
        single full-pool batch all reproduce the per-graph path."""
        scorer = CandidateScorer(tiny_model, batch_size=batch_size)
        serial = [tiny_model.predict_proba(g) for g in candidate_graphs]
        for one, many in zip(
            serial, scorer.iter_scores(candidate_graphs, "proba")
        ):
            np.testing.assert_allclose(many, one, rtol=0, atol=1e-9)

    def test_predict_graphs_matches_model_threshold(
        self, tiny_model, candidate_graphs
    ):
        scorer = CandidateScorer(tiny_model, batch_size=4)
        serial = [tiny_model.predict(g) for g in candidate_graphs]
        for one, many in zip(serial, scorer.iter_scores(candidate_graphs)):
            np.testing.assert_array_equal(many, one)

    def test_fallback_preserves_coin_rng_stream(self, candidate_graphs):
        """Coins draw RNG per predict call: the engine must consume the
        stream in exactly hand-written-loop order."""
        reference = FairCoin(seed=9)
        direct = [reference.predict(g) for g in candidate_graphs]
        scorer = CandidateScorer(FairCoin(seed=9), batch_size=32)
        engine = list(scorer.iter_scores(iter(candidate_graphs)))
        for one, many in zip(direct, engine):
            np.testing.assert_array_equal(many, one)

    def test_fallback_is_lazy(self, dataset_builder, cti):
        """``select`` over the fallback path predicts exactly the
        candidates it considers: once with the budget binding, once with
        the cap binding."""

        class CountingCoin(FairCoin):
            calls = 0

            def predict(self, graph):
                CountingCoin.calls += 1
                return super().predict(graph)

        entry_a, entry_b = cti
        schedules = propose_hint_pairs(
            rngmod.make_rng(11), entry_a.trace, entry_b.trace, 7
        )
        assert len(schedules) == 7

        def stream():
            return iter_score_candidates(
                CandidateScorer(CountingCoin(seed=2), batch_size=32),
                dataset_builder,
                entry_a,
                entry_b,
                schedules,
            )

        # Budget binds: every candidate is accepted, two are wanted.
        selected, pulled_at, pulled = select(
            itertools.islice(stream(), 5), TargetBlocks([]), budget=2
        )
        assert (len(selected), pulled_at, pulled) == (2, [1, 2], 2)
        assert CountingCoin.calls == 2
        # Cap binds: no candidate is accepted, three may be considered.
        CountingCoin.calls = 0
        selected, pulled_at, pulled = select(
            itertools.islice(stream(), 3), TargetBlocks([-1]), budget=2
        )
        assert (selected, pulled_at, pulled) == ([], [], 3)
        assert CountingCoin.calls == 3

    def test_engine_emits_batch_telemetry(self, tiny_model, candidate_graphs):
        with obs.use_registry(MetricsRegistry(sink=MemorySink())) as registry:
            list(
                CandidateScorer(tiny_model, batch_size=3).iter_scores(
                    candidate_graphs, "proba"
                )
            )
            assert registry.counter("inference.batched").value == 7
            histogram = registry.histogram("inference.batch_size")
            assert histogram.count == 3  # 3 + 3 + 1


class TestScoreCandidates:
    def test_modes_and_order(self, dataset_builder, tiny_model, cti):
        entry_a, entry_b = cti
        rng = rngmod.make_rng(5)
        schedules = propose_hint_pairs(rng, entry_a.trace, entry_b.trace, 5)
        predicted = list(
            iter_score_candidates(
                CandidateScorer(tiny_model),
                dataset_builder,
                entry_a,
                entry_b,
                schedules,
            )
        )
        proba = list(
            iter_score_candidates(
                CandidateScorer(tiny_model),
                dataset_builder,
                entry_a,
                entry_b,
                schedules,
                mode="proba",
            )
        )
        assert [c.index for c in predicted] == list(range(5))
        assert [c.hints for c in predicted] == [tuple(s) for s in schedules]
        for scored_p, scored_b in zip(proba, predicted):
            assert scored_b.proba is None and scored_p.predicted is None
            np.testing.assert_array_equal(
                scored_p.proba >= tiny_model.threshold, scored_b.predicted
            )

    def test_unknown_mode_rejected(self, dataset_builder, tiny_model, cti):
        entry_a, entry_b = cti
        with pytest.raises(ValueError):
            next(
                iter_score_candidates(
                    CandidateScorer(tiny_model),
                    dataset_builder,
                    entry_a,
                    entry_b,
                    [],
                    mode="x",
                )
            )


def _mlpct_campaign(
    dataset_builder, predictor, ctis, batch_size=32, workers=0, budget=5
):
    explorer = MLPCTExplorer(
        dataset_builder,
        predictor=predictor,
        strategy=make_strategy("S1"),
        config=ExplorationConfig(
            execution_budget=budget,
            inference_cap=24,
            proposal_pool=24,
            score_batch_size=batch_size,
            parallel_workers=workers,
        ),
        seed=0,
    )
    return run_campaign(explorer, ctis)


def _assert_campaigns_identical(left, right):
    assert campaign_result_to_dict(left) == campaign_result_to_dict(right)


class TestCampaignEquivalence:
    @pytest.fixture(scope="class")
    def ctis(self, dataset_builder):
        return dataset_builder.corpus.sample_pairs(rngmod.make_rng(3), 3)

    def test_batched_equals_unbatched(self, dataset_builder, tiny_model, ctis):
        batched = _mlpct_campaign(dataset_builder, tiny_model, ctis, batch_size=32)
        single = _mlpct_campaign(dataset_builder, tiny_model, ctis, batch_size=1)
        _assert_campaigns_identical(batched, single)

    def test_parallel_equals_serial_mlpct(self, dataset_builder, tiny_model, ctis):
        serial = _mlpct_campaign(dataset_builder, tiny_model, ctis, workers=0)
        parallel = _mlpct_campaign(dataset_builder, tiny_model, ctis, workers=2)
        _assert_campaigns_identical(serial, parallel)

    def test_parallel_equals_serial_pct(self, dataset_builder, ctis):
        def pct(workers):
            explorer = PCTExplorer(
                dataset_builder,
                config=ExplorationConfig(
                    execution_budget=4,
                    proposal_pool=12,
                    parallel_workers=workers,
                ),
                seed=0,
            )
            return run_campaign(explorer, ctis)

        _assert_campaigns_identical(pct(0), pct(2))

    def test_parallel_equals_serial_with_telemetry(
        self, dataset_builder, tiny_model, ctis
    ):
        """Telemetry on or off, workers or not: same campaign, and the
        parent's trace still accounts for every execution."""
        with obs.use_registry(MetricsRegistry(sink=MemorySink())) as registry:
            parallel = _mlpct_campaign(
                dataset_builder, tiny_model, ctis, workers=2
            )
            runs = registry.counter("execution.runs").value
        serial = _mlpct_campaign(dataset_builder, tiny_model, ctis, workers=0)
        _assert_campaigns_identical(serial, parallel)
        assert runs == parallel.ledger.executions

    def test_coin_predictor_campaign_unchanged_by_engine(
        self, dataset_builder, ctis
    ):
        """RNG-consuming predictors take the strict-lazy path, so any
        configured batch size yields the same campaign."""
        wide = _mlpct_campaign(
            dataset_builder, FairCoin(seed=4), ctis, batch_size=32
        )
        narrow = _mlpct_campaign(
            dataset_builder, FairCoin(seed=4), ctis, batch_size=1
        )
        _assert_campaigns_identical(wide, narrow)

    def test_all_positive_batches(self, dataset_builder, ctis):
        batched = _mlpct_campaign(
            dataset_builder, AllPositive(), ctis, batch_size=8
        )
        single = _mlpct_campaign(
            dataset_builder, AllPositive(), ctis, batch_size=1
        )
        _assert_campaigns_identical(batched, single)


class _KeyedStub:
    """Batch-capable RNG-free predictor whose output is a pure function
    of what the model may read; records every batch that reaches it."""

    threshold = 0.5

    def __init__(self):
        self.batches = []

    def predict_proba(self, graph):
        seed = hashlib.sha256(schedule_key(graph)).digest()[:8]
        rng = np.random.default_rng(int.from_bytes(seed, "big"))
        return rng.random(graph.num_nodes)

    def predict(self, graph):
        return self.predict_proba(graph) >= self.threshold

    def predict_proba_batch(self, graphs):
        self.batches.append(
            [(id(graph.token_ids), schedule_key(graph)) for graph in graphs]
        )
        return [self.predict_proba(graph) for graph in graphs]


#: Scenario axes a candidate pool can come from: 2-thread, 3-thread, IRQ, TSO.
_POOL_AXES = {
    "two-thread": {},
    "three-thread": {"num_threads": 3},
    "irq": {"irq": True},
    "tso": {"memory_model": "tso"},
}


def _pool(dataset_builder, axis, seed, size=48):
    """``(entries, schedules)``: one CTI's candidate pool under ``axis``,
    proposed exactly as a campaign's explorer proposes it."""
    config = ExplorationConfig(proposal_pool=size, **_POOL_AXES[axis])
    rng = rngmod.make_rng(seed)
    if config.num_threads == 2:
        entries = dataset_builder.corpus.sample_pairs(rng, 1)[0]
    else:
        entries = dataset_builder.corpus.sample_groups(
            rng, 1, config.num_threads
        )[0]
    explorer = PCTExplorer(dataset_builder, config=config, seed=seed)
    try:
        return entries, explorer.proposals_for(*entries)
    finally:
        explorer.close()


@pytest.fixture(scope="module")
def repeated_pool(dataset_builder, sibling_hints):
    """``(entries, schedules)``: a two-thread pool of 12 candidates, each
    followed 12 places later by a structural repeat (same blocks, other
    instructions)."""
    entries, schedules = _pool(dataset_builder, "two-thread", 5, size=12)
    siblings = [sibling_hints(entries, hints) for hints in schedules]
    assert any(a != b for a, b in zip(schedules, siblings))
    return entries, list(schedules) + siblings


class TestStructuralMemo:
    """Each distinct schedule graph of a pool is scored once; repeats
    are handed the memoised array. A pure performance change."""

    @given(
        axis=st.sampled_from(sorted(_POOL_AXES)),
        seed=st.integers(0, 500),
        batch_size=st.integers(2, 9),
        mode=st.sampled_from(["predicted", "proba"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_same_sequence_as_one_by_one(
        self, dataset_builder, axis, seed, batch_size, mode
    ):
        entries, schedules = _pool(dataset_builder, axis, seed)
        stub = _KeyedStub()
        scored = list(
            iter_score_candidates(
                CandidateScorer(stub, batch_size=batch_size),
                dataset_builder,
                *entries,
                schedules,
                mode=mode,
            )
        )
        assert [c.index for c in scored] == list(range(len(schedules)))
        assert [c.hints for c in scored] == [tuple(s) for s in schedules]
        for candidate in scored:
            proba = stub.predict_proba(candidate.graph)
            expected = proba if mode == "proba" else proba >= stub.threshold
            np.testing.assert_array_equal(getattr(candidate, mode), expected)
        # The predictor saw each distinct graph once, in full batches.
        sent = [key for batch in stub.batches for key in batch]
        assert len(sent) == len(set(sent))
        assert set(sent) == {
            (id(c.graph.token_ids), schedule_key(c.graph)) for c in scored
        }
        assert all(len(batch) == batch_size for batch in stub.batches[:-1])

    def test_real_model_matches_per_graph_path(
        self, dataset_builder, tiny_model, repeated_pool
    ):
        entries, schedules = repeated_pool
        scored = list(
            iter_score_candidates(
                CandidateScorer(tiny_model, batch_size=4),
                dataset_builder,
                *entries,
                schedules,
                mode="proba",
            )
        )
        for candidate in scored:
            np.testing.assert_allclose(
                candidate.proba,
                tiny_model.predict_proba(candidate.graph),
                rtol=0,
                atol=1e-9,
            )

    def test_shared_results_are_read_only(self, dataset_builder, repeated_pool):
        entries, schedules = repeated_pool
        for mode in ("predicted", "proba"):
            scored = list(
                iter_score_candidates(
                    CandidateScorer(_KeyedStub(), batch_size=4),
                    dataset_builder,
                    *entries,
                    schedules,
                    mode=mode,
                )
            )
            first, repeat = scored[0], scored[len(scored) // 2]
            assert getattr(first, mode) is getattr(repeat, mode)
            with pytest.raises(ValueError):
                getattr(repeat, mode)[0] = 1

    def test_memo_never_sits_in_front_of_a_backend(
        self, dataset_builder, repeated_pool
    ):
        """A backend owns its cache and hit accounting: it must be asked
        about every candidate, in plain ``batch_size`` chunks."""
        entries, schedules = repeated_pool
        stub = _KeyedStub()
        list(
            iter_score_candidates(
                CandidateScorer(None, batch_size=4, backend=stub),
                dataset_builder,
                *entries,
                schedules,
            )
        )
        assert [len(batch) for batch in stub.batches] == [4] * (
            len(schedules) // 4
        )

    def test_coin_rng_stream_is_untouched(self, dataset_builder, repeated_pool):
        """The per-graph fallback draws once per candidate, repeats
        included, in hand-written-loop order."""
        entries, schedules = repeated_pool
        reference = FairCoin(seed=9)
        direct = [
            reference.predict(dataset_builder.graph_for(*entries, list(h)))
            for h in schedules
        ]
        scored = list(
            iter_score_candidates(
                CandidateScorer(FairCoin(seed=9)),
                dataset_builder,
                *entries,
                schedules,
            )
        )
        for one, candidate in zip(direct, scored):
            np.testing.assert_array_equal(candidate.predicted, one)

    def test_s3_may_reselect_a_structural_repeat(
        self, dataset_builder, repeated_pool
    ):
        """Strategy semantics are unchanged: S1 can never select a
        repeat (same bitmap), S3 still may until its trials run out."""
        entries, schedules = repeated_pool
        half = len(schedules) // 2
        first = next(i for i in range(half) if schedules[i] != schedules[i + half])
        schedules = [schedules[first], schedules[first + half]]
        selected = {}
        for name in ("S1", "S3"):
            chosen, _, _ = select(
                iter_score_candidates(
                    CandidateScorer(_KeyedStub(), batch_size=4),
                    dataset_builder,
                    *entries,
                    schedules,
                ),
                make_strategy(name),
            )
            selected[name] = len(chosen)
        assert selected == {"S1": 1, "S3": 2}

    def test_memo_hits_are_counted(self, dataset_builder, repeated_pool):
        entries, schedules = repeated_pool
        with obs.use_registry(MetricsRegistry(sink=MemorySink())) as registry:
            list(
                iter_score_candidates(
                    CandidateScorer(_KeyedStub(), batch_size=4),
                    dataset_builder,
                    *entries,
                    schedules,
                )
            )
            batched = registry.counter("inference.batched").value
            hits = registry.counter("inference.memo_hits").value
        assert hits > 0 and batched + hits == len(schedules)

    def test_golden_pool_reaches_the_predictor_deduplicated(
        self, dataset_builder
    ):
        """Tier-1 guard: on the golden kernel a 400-candidate pool holds
        structural repeats, so the predictor must see strictly fewer
        graphs than candidates — a refactor that silently drops the memo
        fails here, not in the bench pipeline."""
        entries, schedules = _pool(dataset_builder, "two-thread", 0, size=400)
        assert len(schedules) == 400
        stub = _KeyedStub()
        scored = list(
            iter_score_candidates(
                CandidateScorer(stub, batch_size=8),
                dataset_builder,
                *entries,
                schedules,
            )
        )
        assert len(scored) == 400
        assert sum(len(batch) for batch in stub.batches) < 400


class TestBatchIndependence:
    """There is one inference path, so what a graph was batched or served
    with cannot reach its prediction — not even at the last bit."""

    @given(
        axis=st.sampled_from(sorted(_POOL_AXES)),
        seeds=st.tuples(st.integers(0, 500), st.integers(0, 500)),
        data=st.data(),
    )
    @settings(deadline=None)  # example budget: the hypothesis profile's
    def test_rows_do_not_depend_on_the_batch(
        self, dataset_builder, tiny_model, axis, seeds, data
    ):
        groups = []
        for seed in seeds:
            entries, schedules = _pool(dataset_builder, axis, seed, size=6)
            picks = data.draw(
                st.lists(st.sampled_from(schedules), min_size=1, max_size=4)
            )
            groups.append(
                [dataset_builder.graph_for(*entries, list(h)) for h in picks]
            )
        graphs = groups[0] + groups[1]
        order = data.draw(st.permutations(range(len(graphs))))
        mixed = [graphs[i] for i in order]
        chunk = data.draw(st.integers(1, len(graphs)))

        def every_composition():
            """Each graph alone, then the same rows out of a uniform
            batch, a mixed batch and a chunked mixed batch."""
            alone = [tiny_model.predict_proba_batch([g])[0] for g in graphs]
            uniform = [
                proba
                for group in groups
                for proba in tiny_model.predict_proba_batch(group)
            ]
            chunked = [
                proba
                for start in range(0, len(mixed), chunk)
                for proba in tiny_model.predict_proba_batch(
                    mixed[start : start + chunk]
                )
            ]
            whole = tiny_model.predict_proba_batch(mixed)
            for i, graph in enumerate(graphs):
                np.testing.assert_array_equal(uniform[i], alone[i])
                np.testing.assert_array_equal(
                    tiny_model.predict_proba(graph), alone[i]
                )
            for j, i in enumerate(order):
                np.testing.assert_array_equal(whole[j], alone[i])
                np.testing.assert_array_equal(chunked[j], alone[i])
            return alone

        exact = every_composition()
        for graph, proba in zip(graphs, exact):
            logits = tiny_model.logits(graph, training=False).data[:, 0]
            np.testing.assert_allclose(
                proba, stable_sigmoid(logits), rtol=0, atol=1e-9
            )
        edge_rows = [
            np.arange(min(3, graph.num_edges), dtype=np.int64)
            for graph in mixed
        ]
        for graph, rows, batched in zip(
            mixed,
            edge_rows,
            tiny_model.predict_dataflow_proba_batch(mixed, edge_rows),
        ):
            np.testing.assert_array_equal(
                tiny_model.predict_dataflow_proba(graph, rows), batched
            )
        try:
            tiny_model.set_inference_mode("float32")
            reduced = every_composition()
        finally:
            tiny_model.set_inference_mode("float64")
        for proba, proba32 in zip(exact, reduced):
            np.testing.assert_allclose(proba32, proba, rtol=0, atol=1e-5)

    def test_template_less_graph_is_a_run_of_one(
        self, tiny_model, small_splits, candidate_graphs
    ):
        """A merged training batch has no template to cache a plan in:
        it is scored as its own run wherever it sits, twice in a row
        included (``tests/test_batching.py`` checks its components)."""
        from repro.ml.batching import merge_examples

        merged = merge_examples(small_splits.train[:3]).graph
        assert merged.base_cache is None
        alone = tiny_model.predict_proba(merged)
        logits = tiny_model.logits(merged, training=False).data[:, 0]
        np.testing.assert_allclose(
            alone, stable_sigmoid(logits), rtol=0, atol=1e-9
        )
        batch = candidate_graphs[:2] + [merged, merged] + candidate_graphs[2:4]
        for graph, proba in zip(batch, tiny_model.predict_proba_batch(batch)):
            np.testing.assert_array_equal(
                proba, tiny_model.predict_proba(graph)
            )


class TestFloat32FastPath:
    #: Documented agreement bound for float32 batched scoring; measured
    #: max |Δproba| on the golden pipeline is ~2e-7.
    PROBA_ATOL = 1e-5

    def test_invalid_mode_rejected(self, tiny_model):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            tiny_model.set_inference_mode("float16")

    def test_float32_probas_close_and_classes_agree(
        self, tiny_model, candidate_graphs
    ):
        p64 = tiny_model.predict_proba_batch(candidate_graphs)
        try:
            tiny_model.set_inference_mode("float32")
            p32 = tiny_model.predict_proba_batch(candidate_graphs)
        finally:
            tiny_model.set_inference_mode("float64")
        threshold = float(tiny_model.threshold)
        for a, b in zip(p64, p32):
            assert b.dtype == np.float64  # probas stay float64 downstream
            np.testing.assert_allclose(b, a, rtol=0, atol=self.PROBA_ATOL)
            np.testing.assert_array_equal(b >= threshold, a >= threshold)

    def test_float64_unchanged_after_mode_flips(
        self, tiny_model, candidate_graphs
    ):
        before = tiny_model.predict_proba_batch(candidate_graphs)
        try:
            tiny_model.set_inference_mode("float32")
            tiny_model.predict_proba_batch(candidate_graphs)
        finally:
            tiny_model.set_inference_mode("float64")
        after = tiny_model.predict_proba_batch(candidate_graphs)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_single_graph_follows_float32_mode(
        self, tiny_model, candidate_graphs
    ):
        """The mode governs every inference call: a single graph is a
        batch of one, so under float32 it equals its float32 batch row
        (and no longer silently stays float64)."""
        graph = candidate_graphs[0]
        before = tiny_model.predict_proba(graph)
        try:
            tiny_model.set_inference_mode("float32")
            during = tiny_model.predict_proba(graph)
            row = tiny_model.predict_proba_batch(candidate_graphs)[0]
        finally:
            tiny_model.set_inference_mode("float64")
        np.testing.assert_array_equal(during, row)
        assert not np.array_equal(during, before)
        np.testing.assert_allclose(during, before, rtol=0, atol=self.PROBA_ATOL)

    def test_quality_gate_passes_under_float32(
        self, tiny_model, small_splits
    ):
        from repro.oracle.quality import run_quality_gate

        graph = small_splits.evaluation[0].graph
        exact = tiny_model.predict_proba(graph)
        try:
            tiny_model.set_inference_mode("float32")
            # The gate scores through predict_proba: make sure that call
            # really runs float32 now, or this test proves nothing.
            assert not np.array_equal(tiny_model.predict_proba(graph), exact)
            report = run_quality_gate(
                model=tiny_model, examples=small_splits.evaluation
            )
        finally:
            tiny_model.set_inference_mode("float64")
        assert report.passed, report.render()


class TestRunners:
    def _tasks(self, dataset_builder, cti, count=3):
        entry_a, entry_b = cti
        rng = rngmod.make_rng(17)
        pairs = propose_hint_pairs(rng, entry_a.trace, entry_b.trace, count)
        programs = (entry_a.sti.as_pairs(), entry_b.sti.as_pairs())
        return [
            CTTask.build(programs, list(pair), seed=0, index=i)
            for i, pair in enumerate(pairs)
        ]

    def test_make_runner_dispatch(self):
        assert isinstance(make_runner(0), SerialCTRunner)
        assert isinstance(make_runner(-1), SerialCTRunner)
        # --workers alone gets the one pool there is, supervised by the
        # default policy, reporting nothing until a fault occurs.
        pool = make_runner(2)
        assert isinstance(pool, SupervisedRunner)
        assert pool.workers == 2 and pool.policy == SupervisionPolicy()
        assert not pool.reporting
        pool.close()
        assert make_runner(2, policy=SupervisionPolicy()).reporting
        assert isinstance(
            make_runner(0, policy=SupervisionPolicy()), SupervisedRunner
        )

    def test_pool_results_ordered_and_identical(
        self, kernel, dataset_builder, cti
    ):
        tasks = self._tasks(dataset_builder, cti)
        serial = SerialCTRunner().run_many(kernel, tasks)
        pool = make_runner(2)
        try:
            parallel = pool.run_many(kernel, tasks)
        finally:
            pool.close()
        assert parallel == serial
        assert not pool.reporting  # fault-free: nothing to report

    def test_task_seeds_are_deterministic(self, dataset_builder, cti):
        first = self._tasks(dataset_builder, cti)
        second = self._tasks(dataset_builder, cti)
        assert [t.seed for t in first] == [t.seed for t in second]
        assert len({t.seed for t in first}) == len(first)

    def test_empty_task_list(self, kernel):
        pool = make_runner(2)
        try:
            assert pool.run_many(kernel, []) == []
            assert pool._pool == []  # empty batch never spawned workers
        finally:
            pool.close()


def _result_json(result) -> str:
    return canonical_json(campaign_result_to_dict(result))


class TestUnsupervisedPool:
    """``parallel_workers`` alone runs the supervised pool with the default
    policy. Two invariants make that a replacement for the old plain pool
    rather than a behaviour change: fault-free it leaves no trace (result,
    journal and checkpoint bytes equal serial's), and a real fault is
    never silent."""

    @pytest.fixture(scope="class")
    def ctis(self, dataset_builder):
        return dataset_builder.corpus.sample_pairs(rngmod.make_rng(3), 3)

    @staticmethod
    def _journaled(dataset_builder, ctis, directory, **config):
        directory.mkdir()
        journal = CampaignJournal(str(directory / "campaign.journal"))
        explorer = PCTExplorer(
            dataset_builder,
            config=ExplorationConfig(
                execution_budget=4, proposal_pool=12, **config
            ),
            seed=0,
        )
        result = run_campaign(explorer, ctis, journal=journal)
        journal.close()
        files = {
            entry.name: entry.read_bytes() for entry in sorted(directory.iterdir())
        }
        return result, files

    def test_fault_free_pool_is_byte_identical_to_serial(
        self, dataset_builder, ctis, tmp_path
    ):
        serial, serial_files = self._journaled(
            dataset_builder, ctis, tmp_path / "serial"
        )
        pooled, pooled_files = self._journaled(
            dataset_builder, ctis, tmp_path / "pooled", parallel_workers=2
        )
        supervised, supervised_files = self._journaled(
            dataset_builder,
            ctis,
            tmp_path / "supervised",
            parallel_workers=2,
            supervision=SupervisionPolicy(),
        )
        assert sorted(serial_files) == [
            "campaign.journal",
            "campaign.journal.PCT.ckpt",
        ]
        assert pooled_files == serial_files
        assert pooled.resilience is None
        assert _result_json(pooled) == _result_json(serial)
        # Asking for supervision differs in the documented field only.
        assert supervised.resilience == dict.fromkeys(supervised.resilience, 0)
        assert supervised_files != serial_files  # checkpoints carry "runner"
        supervised.resilience = None
        assert _result_json(supervised) == _result_json(serial)

    def test_real_worker_death_is_survived_and_reported(
        self, dataset_builder, ctis, tmp_path, monkeypatch
    ):
        """SIGKILL a pool worker in the middle of a CT, with no supervision
        asked for: the old ``Pool.map`` stalled forever here."""
        from repro.resilience import supervisor

        marker = tmp_path / "killed"
        run_task = supervisor._run_task

        def die_once(kernel, task):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return run_task(kernel, task)
            os.kill(os.getpid(), signal.SIGKILL)

        serial, _ = self._journaled(dataset_builder, ctis, tmp_path / "serial")
        monkeypatch.setattr(supervisor, "_run_task", die_once)
        pooled, pooled_files = self._journaled(
            dataset_builder, ctis, tmp_path / "pooled", parallel_workers=2
        )
        assert marker.exists(), "no worker ever reached the kill"
        assert pooled.resilience["worker_deaths"] == 1
        assert pooled.resilience["retries"] == 1
        checkpoint = json.loads(pooled_files["campaign.journal.PCT.ckpt"])
        assert checkpoint["state"]["runner"]["worker_deaths"] == 1
        pooled.resilience = None
        assert _result_json(pooled) == _result_json(serial)
