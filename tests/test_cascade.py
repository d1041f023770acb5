"""Two-stage scoring cascade + GNN float32 fast-path equivalence tests.

The cascade and the float32 inference mode are *performance* features,
so nearly every test here pins some flavour of "the fast path computes
what the slow path computed": cascade off must be byte-identical to the
plain engine, a recall floor of 1.0 must execute exactly the same CT
set, and float32 must agree with float64 on every predicted class
within a documented tolerance.
"""

import numpy as np
import pytest

from repro import obs
from repro import rng as rngmod
from repro.core.filtermodel import (
    NUM_FILTER_FEATURES,
    TrainedFilter,
    _simulate_filter_reference,
    candidate_feature_matrix,
    candidate_features,
    pic_flags,
    simulate_filter,
)
from repro.core.filtermodel import FilterModel
from repro.core.mlpct import (
    ExplorationConfig,
    MLPCTExplorer,
    run_campaign,
)
from repro.core.scoring import CandidateScorer
from repro.core.strategies import make_strategy
from repro.execution.pct import propose_hint_pairs
from repro.ml.baselines import FairCoin
from repro.obs import MemorySink, MetricsRegistry
from repro.oracle import DifferentialRunner, add_campaign_check


@pytest.fixture(scope="module")
def cti(dataset_builder):
    return dataset_builder.corpus.sample_pairs(rngmod.make_rng(3), 1)[0]


@pytest.fixture(scope="module")
def candidate_graphs(dataset_builder, cti):
    entry_a, entry_b = cti
    rng = rngmod.make_rng(11)
    pairs = propose_hint_pairs(rng, entry_a.trace, entry_b.trace, 9)
    return [
        dataset_builder.graph_for(entry_a, entry_b, list(pair)) for pair in pairs
    ]


@pytest.fixture(scope="module")
def trained_filter(small_splits):
    return TrainedFilter.train(
        small_splits.train,
        validation=small_splits.validation or small_splits.train,
        recall_floor=0.9,
    )


def _filter_at(trained_filter, threshold):
    """A copy of ``trained_filter`` pinned to an explicit threshold."""
    import dataclasses

    return dataclasses.replace(trained_filter, threshold=threshold)


class TestCandidateFeatures:
    def test_feature_vector_shape_and_finiteness(self, candidate_graphs):
        for graph in candidate_graphs:
            vec = candidate_features(graph)
            assert vec.shape == (NUM_FILTER_FEATURES,)
            assert np.all(np.isfinite(vec))

    def test_matrix_stacks_vectors(self, candidate_graphs):
        matrix = candidate_feature_matrix(candidate_graphs)
        assert matrix.shape == (len(candidate_graphs), NUM_FILTER_FEATURES)
        np.testing.assert_array_equal(
            matrix[0], candidate_features(candidate_graphs[0])
        )

    def test_empty_matrix(self):
        assert candidate_feature_matrix([]).shape == (0, NUM_FILTER_FEATURES)


class TestTrainedFilter:
    def test_training_is_deterministic(self, small_splits):
        a = TrainedFilter.train(small_splits.train, recall_floor=0.9)
        b = TrainedFilter.train(small_splits.train, recall_floor=0.9)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias and a.threshold == b.threshold

    def test_scores_strictly_inside_unit_interval(
        self, trained_filter, candidate_graphs
    ):
        scores = trained_filter.score_graphs(candidate_graphs)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_recall_floor_holds_on_calibration_split(
        self, trained_filter, small_splits
    ):
        calib = small_splits.validation or small_splits.train
        labels = np.array([ex.urb_labels().sum() > 0 for ex in calib])
        if not labels.any():
            pytest.skip("calibration split has no positives")
        accepted = trained_filter.accept([ex.graph for ex in calib])
        assert accepted[labels].mean() >= trained_filter.recall_floor
        assert trained_filter.measured_tpr >= trained_filter.recall_floor

    def test_floor_of_one_accepts_everything(self, small_splits, candidate_graphs):
        fitted = TrainedFilter.train(small_splits.train, recall_floor=1.0)
        assert fitted.threshold == float("-inf")
        assert fitted.accept(candidate_graphs).all()

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            TrainedFilter.train([])

    def test_operating_point_round_trips_measurements(self, trained_filter):
        point = trained_filter.operating_point()
        assert isinstance(point, FilterModel)
        assert point.true_positive_rate == trained_filter.measured_tpr
        assert point.false_positive_rate == trained_filter.measured_fpr
        assert point.fruitful_probability == trained_filter.prevalence

    def test_distillation_labels_come_from_the_predictor(
        self, small_splits, tiny_model
    ):
        fitted = TrainedFilter.train(
            small_splits.train, recall_floor=0.9, predictor=tiny_model
        )
        flags = pic_flags(tiny_model, [ex.graph for ex in small_splits.train])
        truth = np.array([ex.urb_labels().sum() > 0 for ex in small_splits.train])
        assert flags.dtype == bool and flags.size == truth.size
        ground = TrainedFilter.train(small_splits.train, recall_floor=0.9)
        if not np.array_equal(flags, truth):
            assert not np.array_equal(fitted.weights, ground.weights)

    def test_calibrate_accepts_raw_graphs_with_predictor(
        self, trained_filter, tiny_model, candidate_graphs
    ):
        fitted = _filter_at(trained_filter, trained_filter.threshold)
        threshold = fitted.calibrate(
            candidate_graphs, 0.9, predictor=tiny_model
        )
        assert threshold == fitted.threshold
        assert np.isfinite(threshold) or threshold == float("-inf")


class TestSimulateFilterVectorised:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize(
        "p,tpr,fpr", [(0.011, 0.69, 0.008), (0.5, 0.9, 0.3), (0.05, 0.8, 0.05)]
    )
    def test_matches_scalar_reference_exactly(self, seed, p, tpr, fpr):
        model = FilterModel(
            fruitful_probability=p, true_positive_rate=tpr, false_positive_rate=fpr
        )
        fast = simulate_filter(model, target_fruitful=5, trials=20, seed=seed)
        slow = _simulate_filter_reference(
            model, target_fruitful=5, trials=20, seed=seed
        )
        assert fast == slow

    def test_unreachable_target_guard(self):
        model = FilterModel(
            fruitful_probability=0.0, true_positive_rate=0.5, false_positive_rate=0.5
        )
        fast = simulate_filter(model, target_fruitful=1, trials=2, seed=1)
        slow = _simulate_filter_reference(model, target_fruitful=1, trials=2, seed=1)
        assert fast == slow


class TestCascadeScorer:
    def test_cascade_requires_batch_capable_predictor(self, trained_filter):
        with pytest.raises(ValueError):
            CandidateScorer(FairCoin(seed=1), cascade_filter=trained_filter)

    def test_cascade_forces_batched_property(self, tiny_model, trained_filter):
        scorer = CandidateScorer(
            tiny_model, batch_size=1, cascade_filter=trained_filter
        )
        assert scorer.batched

    def test_accept_all_threshold_matches_plain_engine_bitwise(
        self, tiny_model, trained_filter, candidate_graphs
    ):
        """threshold=-inf accepts everything, so the cascade must return
        exactly the plain batched engine's probabilities."""
        plain = CandidateScorer(tiny_model, batch_size=4)
        cascade = CandidateScorer(
            tiny_model,
            batch_size=4,
            cascade_filter=_filter_at(trained_filter, float("-inf")),
        )
        for expect, got in zip(
            plain.score_proba(candidate_graphs),
            cascade.score_proba(candidate_graphs),
        ):
            np.testing.assert_array_equal(got, expect)

    def test_rejected_candidates_rank_below_accepted(
        self, tiny_model, trained_filter, candidate_graphs
    ):
        """A reject-everything filter yields per-node fallback scores
        strictly below the decision threshold, and all-False classes."""
        cascade = CandidateScorer(
            tiny_model,
            batch_size=4,
            cascade_filter=_filter_at(trained_filter, float("inf")),
        )
        threshold = float(tiny_model.threshold)
        for graph, proba in zip(
            candidate_graphs, cascade.score_proba(candidate_graphs)
        ):
            assert proba.shape == (graph.num_nodes,)
            assert np.all(proba < threshold)
        for predicted in cascade.predict_graphs(candidate_graphs):
            assert predicted.dtype == bool and not predicted.any()

    def test_mixed_pool_scores_accepted_exactly(
        self, tiny_model, trained_filter, candidate_graphs
    ):
        """Accepted survivors must carry bitwise-exact full-PIC scores;
        rejects must carry the documented fallback."""
        scores = trained_filter.score_graphs(candidate_graphs)
        pivot = float(np.median(scores))
        fitted = _filter_at(trained_filter, pivot)
        accepted = scores >= pivot
        if accepted.all() or not accepted.any():
            pytest.skip("median split degenerated on this pool")
        cascade = CandidateScorer(
            tiny_model, batch_size=4, cascade_filter=fitted
        )
        # The cascade batches *survivors*, so the exactness contract is
        # against scoring the kept subset with the same chunking (batch
        # composition changes block-diagonal FP arithmetic at ~1e-16).
        kept = [g for g, keep in zip(candidate_graphs, accepted) if keep]
        full = iter(
            CandidateScorer(tiny_model, batch_size=4).score_proba(kept)
        )
        threshold = float(tiny_model.threshold)
        for index, proba in enumerate(cascade.score_proba(candidate_graphs)):
            if accepted[index]:
                np.testing.assert_array_equal(proba, next(full))
            else:
                np.testing.assert_array_equal(
                    proba,
                    np.full(
                        candidate_graphs[index].num_nodes,
                        scores[index] * threshold,
                    ),
                )

    def test_iter_predicted_matches_eager_cascade(
        self, tiny_model, trained_filter, candidate_graphs
    ):
        fitted = _filter_at(
            trained_filter, float(np.median(trained_filter.score_graphs(candidate_graphs)))
        )
        cascade = CandidateScorer(
            tiny_model, batch_size=3, cascade_filter=fitted
        )
        eager = cascade.predict_graphs(candidate_graphs)
        lazy = list(cascade.iter_predicted(iter(candidate_graphs)))
        assert [id(g) for g, _ in lazy] == [id(g) for g in candidate_graphs]
        for expect, (_, got) in zip(eager, lazy):
            np.testing.assert_array_equal(got, expect)

    def test_cascade_telemetry_counts_pass_and_reject(
        self, tiny_model, trained_filter, candidate_graphs
    ):
        scores = trained_filter.score_graphs(candidate_graphs)
        pivot = float(np.median(scores))
        fitted = _filter_at(trained_filter, pivot)
        with obs.use_registry(MetricsRegistry(sink=MemorySink())) as registry:
            CandidateScorer(
                tiny_model, batch_size=4, cascade_filter=fitted
            ).score_proba(candidate_graphs)
            passed = registry.counter("cascade.filter_pass").value
            rejected = registry.counter("cascade.filter_reject").value
        assert passed == int((scores >= pivot).sum())
        assert passed + rejected == len(candidate_graphs)


def _mlpct_campaign(
    dataset_builder, predictor, ctis, cascade_filter=None, budget=4
):
    explorer = MLPCTExplorer(
        dataset_builder,
        predictor=predictor,
        strategy=make_strategy("S1"),
        cascade_filter=cascade_filter,
        config=ExplorationConfig(
            execution_budget=budget,
            inference_cap=24,
            proposal_pool=24,
            score_batch_size=8,
        ),
        seed=0,
    )
    return run_campaign(explorer, ctis)


class TestCascadeCampaigns:
    @pytest.fixture(scope="class")
    def ctis(self, dataset_builder):
        return dataset_builder.corpus.sample_pairs(rngmod.make_rng(3), 3)

    def test_recall_floor_one_executes_identical_campaign(
        self, dataset_builder, tiny_model, small_splits, ctis
    ):
        """The behaviour-preserving operating point: a floor of 1.0
        calibrates to accept-everything, so the cascaded campaign must be
        indistinguishable from the uncascaded one."""
        fitted = TrainedFilter.train(small_splits.train, recall_floor=1.0)
        assert fitted.threshold == float("-inf")
        plain = _mlpct_campaign(dataset_builder, tiny_model, ctis)
        cascaded = _mlpct_campaign(
            dataset_builder, tiny_model, ctis, cascade_filter=fitted
        )
        runner = DifferentialRunner("cascade-equivalence")
        add_campaign_check(
            runner, "recall-floor-1.0", lambda: plain, lambda: cascaded
        )
        runner.run().raise_if_failed()

    def test_lossy_cascade_campaign_completes(
        self, dataset_builder, tiny_model, small_splits, ctis
    ):
        fitted = TrainedFilter.train(small_splits.train, recall_floor=0.8)
        result = _mlpct_campaign(
            dataset_builder, tiny_model, ctis, cascade_filter=fitted
        )
        assert result.ledger.executions > 0


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
