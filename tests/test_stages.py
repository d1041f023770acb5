"""The per-CTI stages (``plan_cti`` → ``select`` → ``fold``) and their
two drivers.

``explore_cti`` (inline) and the fleet coordinator both run the
explorer's own stages, so these tests drive the stages by hand — with
bitmaps scored by a *separate* scorer, the way a fleet worker produces
them — and require the outcome to equal ``explore_cti``'s on a twin
explorer; then they run the real fleet on the 3-thread + IRQ + TSO axes
and compare results and journal audit blocks against the inline
campaign.
"""

from __future__ import annotations

import json

import pytest

from repro import rng as rngmod
from repro.core.mlpct import (
    ExplorationConfig,
    MLPCTExplorer,
    PCTExplorer,
    run_campaign,
)
from repro.core.scoring import CandidateScorer, iter_score_candidates
from repro.core.strategies import make_strategy
from repro.fleet import FleetConfig, run_fleet
from repro.ml.baselines import AllPositive, FairCoin
from repro.resilience.journal import CampaignJournal, campaign_result_to_dict

NUM_CTIS = 3

POOLS = {
    "two-thread": dict(),
    "axes": dict(num_threads=3, irq=True, memory_model="tso"),
}


def _config(pool: str, **overrides) -> ExplorationConfig:
    settings = dict(execution_budget=2, proposal_pool=12, inference_cap=9)
    settings.update(POOLS[pool])
    settings.update(overrides)
    return ExplorationConfig(**settings)


def _ctis(dataset_builder, pool: str):
    rng = rngmod.make_rng(23)
    if pool == "axes":
        return dataset_builder.corpus.sample_groups(rng, NUM_CTIS, 3)
    return dataset_builder.corpus.sample_pairs(rng, NUM_CTIS)


def _explorer(dataset_builder, tiny_model, kind: str, pool: str):
    if kind == "PCT":
        return PCTExplorer(dataset_builder, config=_config(pool), seed=4)
    return MLPCTExplorer(
        dataset_builder,
        predictor=tiny_model,
        strategy=make_strategy(kind),
        config=_config(pool),
        seed=4,
    )


def _worker_bitmaps(dataset_builder, tiny_model, explorer, plan):
    """What a fleet score job returns for ``plan``: the capped pool
    scored by a scorer that shares nothing with the explorer's."""
    if not explorer.predicts:
        return []
    scorer = CandidateScorer(tiny_model, batch_size=5)
    pool = plan.proposals[: explorer.config.inference_cap]
    return [
        candidate.predicted
        for candidate in iter_score_candidates(
            scorer, dataset_builder, *plan.entries, pool
        )
    ]


KINDS = ["PCT", "S1", "S2", "S3"]


def test_predicting_plan_is_the_pools_capped_prefix(dataset_builder, tiny_model):
    """An MLPCT plan draws only the candidates its inference cap lets
    ``select`` consider: exactly the first ``inference_cap`` of the pool
    a same-seed explorer proposes in full."""
    planner, pooler = (
        _explorer(dataset_builder, tiny_model, "S1", "two-thread") for _ in range(2)
    )
    entries = _ctis(dataset_builder, "two-thread")[0]
    try:
        plan = planner.plan_cti(*entries)
        pool = pooler.proposals_for(*entries)
    finally:
        planner.close()
        pooler.close()
    cap = planner.config.inference_cap
    assert len(pool) == planner.config.proposal_pool > cap
    assert plan.proposals == pool[:cap]


class TestStagesEqualExploreCTI:
    @pytest.mark.parametrize("pool", sorted(POOLS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_hand_driven_stages_match_inline_driver(
        self, dataset_builder, tiny_model, kind, pool
    ):
        inline = _explorer(dataset_builder, tiny_model, kind, pool)
        staged = _explorer(dataset_builder, tiny_model, kind, pool)
        executed = 0
        for entries in _ctis(dataset_builder, pool):
            stats = inline.explore_cti(*entries)
            plan = staged.plan_cti(*entries)
            assert plan.proposals == inline.last_plan.proposals
            staged.select(
                plan, _worker_bitmaps(dataset_builder, tiny_model, staged, plan)
            )
            results = staged.runner.run_many(staged.kernel, plan.tasks)
            staged.fold(plan, results)
            assert plan.stats == stats
            assert plan.tasks == inline.last_plan.tasks
            assert plan.inferences_before == inline.last_plan.inferences_before
            assert staged.state_dict() == inline.state_dict()
            executed += stats.executions
        assert executed > 0
        if pool == "axes":
            assert all(len(task.programs) == 3 for task in plan.tasks)
            assert all(task.memory_model == "tso" for task in plan.tasks)
            assert any(task.irq_plan for task in plan.tasks)

    def test_selection_stops_where_the_bitmaps_end(
        self, dataset_builder, tiny_model
    ):
        explorer = MLPCTExplorer(
            dataset_builder,
            predictor=tiny_model,
            strategy=make_strategy("S2"),
            config=_config("two-thread", execution_budget=50),
            seed=4,
        )
        plan = explorer.plan_cti(*_ctis(dataset_builder, "two-thread")[0])
        bitmaps = _worker_bitmaps(dataset_builder, tiny_model, explorer, plan)
        assert len(bitmaps) > 2
        explorer.select(plan, bitmaps[:2])
        assert plan.stats.inferences == 2
        assert len(plan.tasks) <= 2


class _CountingBatchPredictor(AllPositive):
    def __init__(self) -> None:
        self.graphs_scored = 0

    def predict_proba_batch(self, graphs):
        self.graphs_scored += len(graphs)
        return super().predict_proba_batch(graphs)


class _CountingCoin(FairCoin):
    def __init__(self) -> None:
        super().__init__(seed=9)
        self.draws = 0

    def predict(self, graph):
        self.draws += 1
        return super().predict(graph)


class TestInlineScoringStaysLazy:
    def test_batched_scorer_stops_within_one_window(self, dataset_builder):
        predictor = _CountingBatchPredictor()
        config = _config(
            "two-thread",
            execution_budget=1,
            proposal_pool=64,
            inference_cap=64,
            score_batch_size=8,
        )
        explorer = MLPCTExplorer(
            dataset_builder,
            predictor=predictor,
            strategy=make_strategy("S1"),
            config=config,
            seed=4,
        )
        stats = explorer.explore_cti(*_ctis(dataset_builder, "two-thread")[0])
        assert stats.executions == 1
        assert len(explorer.last_plan.proposals) > 3 * config.score_batch_size
        assert 0 < predictor.graphs_scored
        assert predictor.graphs_scored <= stats.inferences + config.score_batch_size

    def test_rng_predictor_draws_once_per_considered_candidate(
        self, dataset_builder
    ):
        predictor = _CountingCoin()
        explorer = MLPCTExplorer(
            dataset_builder,
            predictor=predictor,
            strategy=make_strategy("S1"),
            config=_config("two-thread", proposal_pool=40, inference_cap=40),
            seed=4,
        )
        considered = 0
        for entries in _ctis(dataset_builder, "two-thread"):
            considered += explorer.explore_cti(*entries).inferences
            assert predictor.draws == considered
        assert 0 < considered < NUM_CTIS * 40


def _result_json(result) -> str:
    return json.dumps(campaign_result_to_dict(result), sort_keys=True)


def _audit_blocks(journal: CampaignJournal):
    return [
        record["audit"] for record in journal.records if record["kind"] == "cti"
    ]


def _fleet_config() -> FleetConfig:
    return FleetConfig(workers=2, lease_seconds=5.0)


class TestFleetOnTheAxes:
    """``run_fleet`` ≡ ``run_campaign`` under 3 threads + IRQ + TSO, down
    to the journal's per-CTI audit block."""

    @pytest.mark.parametrize("kind", ["PCT", "S1"])
    def test_journaled_fleet_matches_journaled_campaign(
        self, dataset_builder, tiny_model, tmp_path, kind
    ):
        ctis = _ctis(dataset_builder, "axes")
        inline_journal = CampaignJournal(str(tmp_path / "inline.journal"))
        fleet_journal = CampaignJournal(str(tmp_path / "fleet.journal"))
        try:
            single = run_campaign(
                _explorer(dataset_builder, tiny_model, kind, "axes"),
                ctis,
                journal=inline_journal,
            )
            fleet, report = run_fleet(
                _explorer(dataset_builder, tiny_model, kind, "axes"),
                ctis,
                config=_fleet_config(),
                journal=fleet_journal,
            )
            inline_audit = _audit_blocks(inline_journal)
            fleet_audit = _audit_blocks(fleet_journal)
        finally:
            inline_journal.close()
            fleet_journal.close()
        assert single.ledger.executions > 0
        assert _result_json(fleet) == _result_json(single)
        assert len(inline_audit) == NUM_CTIS
        assert fleet_audit == inline_audit
        scored = sum(block["scored"] for block in inline_audit)
        assert scored == single.ledger.inferences
        assert report.score_jobs == (NUM_CTIS if kind != "PCT" else 0)

    def test_journal_less_fleet_folds_no_audit(
        self, dataset_builder, tiny_model, tmp_path
    ):
        ctis = _ctis(dataset_builder, "two-thread")
        journal = CampaignJournal(str(tmp_path / "fleet.journal"))
        try:
            journaled, _ = run_fleet(
                _explorer(dataset_builder, tiny_model, "S1", "two-thread"),
                ctis,
                config=_fleet_config(),
                journal=journal,
            )
        finally:
            journal.close()
        explorer = _explorer(dataset_builder, tiny_model, "S1", "two-thread")
        folded = []
        fold = explorer.fold

        def recording_fold(plan, results):
            folded.append(plan)
            fold(plan, results)

        explorer.fold = recording_fold
        plain, _ = run_fleet(explorer, ctis, config=_fleet_config())
        assert len(folded) == NUM_CTIS
        assert all(plan.audit is None for plan in folded)
        assert _result_json(plain) == _result_json(journaled)
