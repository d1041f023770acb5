"""Tests for PIC-guided directed schedule search (§6 extension)."""

import numpy as np
import pytest

from repro.core.directed import DirectedScheduleSearch
from repro.ml.baselines import AllPositive


@pytest.fixture(scope="module")
def search(dataset_builder, tiny_model):
    return DirectedScheduleSearch(dataset_builder, predictor=tiny_model, seed=0)


@pytest.fixture(scope="module")
def cti(dataset_builder):
    return dataset_builder.corpus.entries[0], dataset_builder.corpus.entries[1]


class TestRanking:
    def test_scores_sorted_descending(self, search, cti):
        entry_a, entry_b = cti
        target = entry_a.trace.block_sequence[0]
        ranked, _ = search.rank_schedules(entry_a, entry_b, target, pool=20)
        scores = [score for score, _ in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_absent_block_scores_zero(self, search, cti, kernel):
        entry_a, entry_b = cti
        covered = entry_a.trace.covered_blocks | entry_b.trace.covered_blocks
        # Find a block far from the CT graph (not covered, not a URB).
        from repro.analysis import find_urbs

        urbs = find_urbs(search.graphs.cfg, covered, hops=1)
        outside = next(
            b for b in kernel.blocks if b not in covered and b not in urbs
        )
        ranked, scored = search.rank_schedules(entry_a, entry_b, outside, pool=5)
        assert all(score == 0.0 for score, _ in ranked)
        assert scored == 0

    def test_covered_block_scores_high_with_allpos(self, dataset_builder, cti):
        search = DirectedScheduleSearch(
            dataset_builder, predictor=AllPositive(), seed=0
        )
        entry_a, entry_b = cti
        target = entry_a.trace.block_sequence[0]
        ranked, _ = search.rank_schedules(entry_a, entry_b, target, pool=5)
        assert all(score == 1.0 for score, _ in ranked)


class TestSearch:
    def test_reaches_sequentially_covered_target(self, search, cti):
        entry_a, entry_b = cti
        # The entry block of thread A is always covered concurrently.
        target = entry_a.trace.block_sequence[0]
        result = search.search(entry_a, entry_b, target, execution_budget=3)
        assert result.reached
        assert result.first_hit_index == 0
        assert result.executions == 1

    def test_budget_respected(self, search, cti, kernel):
        entry_a, entry_b = cti
        covered = entry_a.trace.covered_blocks | entry_b.trace.covered_blocks
        outside = next(b for b in kernel.blocks if b not in covered)
        result = search.search(entry_a, entry_b, outside, execution_budget=4, pool=10)
        assert result.executions <= 4

    def test_unguided_baseline_charges_no_inferences(self, search, cti):
        entry_a, entry_b = cti
        target = entry_a.trace.block_sequence[0]
        result = search.search(
            entry_a, entry_b, target, execution_budget=2, guided=False
        )
        assert result.inferences == 0
        assert result.ledger.inferences == 0

    def test_guided_charges_scored_inferences(self, search, cti):
        """Guided search charges one inference per graph it scored: the
        proposals whose graph contains the target."""
        entry_a, entry_b = cti
        target = entry_a.trace.block_sequence[0]
        result = search.search(
            entry_a, entry_b, target, execution_budget=2, pool=15, guided=True
        )
        ranked, scored = search.rank_schedules(entry_a, entry_b, target, pool=15)
        graphs = [
            search.graphs.graph_for(entry_a, entry_b, list(pair))
            for _, pair in ranked
        ]
        assert scored == sum(1 for g in graphs if g.nodes_of_block(target))
        assert result.inferences == result.ledger.inferences == scored == 15

    def test_unreachable_target_charges_no_inferences(self, search, cti, kernel):
        """A target in no candidate graph sends nothing to the model, so
        guided search charges nothing for it."""
        entry_a, entry_b = cti
        covered = entry_a.trace.covered_blocks | entry_b.trace.covered_blocks
        from repro.analysis import find_urbs

        urbs = find_urbs(search.graphs.cfg, covered, hops=1)
        outside = next(
            b for b in kernel.blocks if b not in covered and b not in urbs
        )
        result = search.search(
            entry_a, entry_b, outside, execution_budget=2, pool=15, guided=True
        )
        assert result.inferences == 0
        assert result.ledger.inferences == 0
