"""Tests for PCT scheduling and hint proposal."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import rng as rngmod
from repro.core.mlpct import PCTExplorer
from repro.execution import (
    PctScheduler,
    propose_hint_pairs,
    run_concurrent_pct,
    run_sequential,
)
from repro.execution.trace import SequentialTrace


@pytest.fixture(scope="module")
def traces(kernel):
    names = kernel.syscall_names()
    return (
        run_sequential(kernel, [(names[0], [1, 2])], sti_id=0),
        run_sequential(kernel, [(names[5], [2])], sti_id=1),
    )


class TestPctScheduler:
    def test_sample_shapes(self):
        rng = rngmod.make_rng(0)
        scheduler = PctScheduler.sample(rng, num_threads=2, expected_steps=100, depth=3)
        assert len(scheduler.priorities) == 2
        assert len(scheduler.change_points) == 2
        assert scheduler.change_points == sorted(scheduler.change_points)

    def test_depth_one_has_no_change_points(self):
        rng = rngmod.make_rng(0)
        scheduler = PctScheduler.sample(rng, 2, 100, depth=1)
        assert scheduler.change_points == []

    def test_invalid_depth_rejected(self):
        rng = rngmod.make_rng(0)
        with pytest.raises(ValueError):
            PctScheduler.sample(rng, 2, 100, depth=0)

    def test_next_thread_prefers_priority(self):
        scheduler = PctScheduler(priorities=[1.0, 5.0], change_points=[], depth=2)
        assert scheduler.next_thread([True, True]) == 1
        assert scheduler.next_thread([True, False]) == 0
        assert scheduler.next_thread([False, False]) is None

    def test_change_point_drops_priority_below_initial(self):
        scheduler = PctScheduler(priorities=[3.0, 4.0], change_points=[5], depth=3)
        scheduler.on_step(5, running=1)
        assert scheduler.priorities[1] < 3.0
        assert scheduler.change_points == []


class TestRunConcurrentPct:
    def test_runs_to_completion(self, kernel):
        names = kernel.syscall_names()
        rng = rngmod.make_rng(1)
        scheduler = PctScheduler.sample(rng, 2, expected_steps=400, depth=3)
        result = run_concurrent_pct(
            kernel, ([(names[0], [1])], [(names[1], [2])]), scheduler
        )
        assert result.completed
        assert result.covered_blocks[0]
        assert result.covered_blocks[1]

    def test_different_schedules_can_differ(self, kernel):
        names = kernel.syscall_names()
        stis = ([(names[0], [1])], [(names[4], [2])])
        coverages = set()
        for seed in range(8):
            scheduler = PctScheduler.sample(
                rngmod.make_rng(seed), 2, expected_steps=200, depth=4
            )
            result = run_concurrent_pct(kernel, stis, scheduler)
            coverages.add(
                (frozenset(result.covered_blocks[0]), frozenset(result.covered_blocks[1]))
            )
        assert len(coverages) >= 1  # at minimum it is deterministic per seed


class TestHintProposals:
    def test_count_and_uniqueness(self, traces):
        rng = rngmod.make_rng(2)
        pairs = propose_hint_pairs(rng, traces[0], traces[1], 30)
        keys = {(a.iid, b.iid) for a, b in pairs}
        assert len(keys) == len(pairs)
        assert len(pairs) <= 30

    def test_threads_assigned_correctly(self, traces):
        rng = rngmod.make_rng(2)
        for hint_a, hint_b in propose_hint_pairs(rng, traces[0], traces[1], 10):
            assert hint_a.thread == 0
            assert hint_b.thread == 1

    def test_hints_come_from_traces(self, traces):
        rng = rngmod.make_rng(2)
        set_a = set(traces[0].iid_trace)
        set_b = set(traces[1].iid_trace)
        for hint_a, hint_b in propose_hint_pairs(rng, traces[0], traces[1], 20):
            assert hint_a.iid in set_a
            assert hint_b.iid in set_b

    def test_empty_trace_yields_nothing(self, traces):
        from repro.execution.trace import SequentialTrace

        rng = rngmod.make_rng(2)
        empty = SequentialTrace(sti_id=9)
        assert propose_hint_pairs(rng, empty, traces[1], 5) == []

    def test_deterministic_given_rng_seed(self, traces):
        a = propose_hint_pairs(rngmod.make_rng(3), traces[0], traces[1], 10)
        b = propose_hint_pairs(rngmod.make_rng(3), traces[0], traces[1], 10)
        assert a == b


class TestPlanIsPoolPrefix:
    """A PCT explorer runs at most its execution budget of candidates, so
    its plan draws only those: exactly the first ``budget`` of the pool a
    same-seed explorer proposes in full."""

    @staticmethod
    def _plan_and_pool(dataset_builder, entries):
        planner, pooler = (PCTExplorer(dataset_builder, seed=11) for _ in range(2))
        try:
            return (
                planner.plan_cti(*entries).proposals,
                pooler.proposals_for(*entries),
                planner.config,
            )
        finally:
            planner.close()
            pooler.close()

    def test_plan_is_the_pools_prefix(self, dataset_builder):
        entries = dataset_builder.corpus.sample_pairs(rngmod.make_rng(8), 1)[0]
        plan, pool, config = self._plan_and_pool(dataset_builder, entries)
        assert plan == pool[: config.execution_budget]
        assert len(plan) == min(config.execution_budget, config.proposal_pool)

    def test_prefix_when_the_attempt_limit_binds(self, dataset_builder):
        entries = dataset_builder.corpus.sample_pairs(rngmod.make_rng(8), 1)[0]
        short = []
        for entry in entries:
            distinct = list(dict.fromkeys(entry.trace.iid_trace))[:7]
            assert len(distinct) == 7
            # One hot instruction and six rare ones: 49 distinct pairs, fewer
            # than the budget, and the rare pairs take far more draws than
            # five per budgeted proposal would allow.
            trace = SequentialTrace(
                sti_id=entry.trace.sti_id, iid_trace=[distinct[0]] * 12 + distinct[1:]
            )
            short.append(dataclasses.replace(entry, trace=trace))
        plan, pool, config = self._plan_and_pool(dataset_builder, short)
        assert len(pool) == 49 < config.execution_budget
        assert plan == pool[: config.execution_budget]
