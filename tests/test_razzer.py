"""Tests for the Razzer integration (§5.6.1)."""

import numpy as np
import pytest

from repro.core.strategies import TargetBlocks
from repro.integrations.razzer import (
    RazzerConfig,
    RazzerHarness,
    RazzerVariant,
)
from repro.ml.baselines import FairCoin


@pytest.fixture(scope="module")
def harness(dataset_builder, tiny_model):
    config = RazzerConfig(
        schedules_per_cti=6, max_candidates=40, pic_probe_schedules=2, shuffles=20
    )
    return RazzerHarness(
        dataset_builder, predictor=tiny_model, config=config, seed=0
    )


@pytest.fixture(scope="module")
def race(kernel):
    return kernel.bugs[0]


class TestCandidateSearch:
    def test_relax_admits_every_strict_trigger(self, harness, kernel, corpus):
        """The relaxed rule (SCB or URB) admits every strict (SCB) match."""
        for spec in kernel.bugs[:3]:
            for entry in corpus:
                for iid in spec.racing_pair:
                    if harness._sti_triggers(entry, iid, relaxed=False):
                        assert harness._sti_triggers(entry, iid, relaxed=True)

    def test_relax_finds_at_least_as_many_candidates(self, harness, kernel):
        for spec in kernel.bugs[:3]:
            strict = harness.candidates(spec, RazzerVariant.STRICT)
            relax = harness.candidates(spec, RazzerVariant.RELAX)
            if len(relax) < harness.config.max_candidates:
                assert len(relax) >= len(strict)

    def test_no_self_pairs(self, harness, race):
        for writer, reader in harness.candidates(race, RazzerVariant.RELAX):
            assert writer.sti.sti_id != reader.sti.sti_id

    def test_candidate_cap(self, harness, race):
        assert (
            len(harness.candidates(race, RazzerVariant.RELAX))
            <= harness.config.max_candidates
        )

    def test_strict_requires_dynamic_execution_of_racing_instr(
        self, harness, race, kernel
    ):
        for writer, reader in harness.candidates(race, RazzerVariant.STRICT):
            assert race.write_iid in writer.trace.iid_trace
            assert race.read_iid in reader.trace.iid_trace


class TestPicFilter:
    def test_pic_subset_of_relax(self, harness, race):
        relax = harness.candidates(race, RazzerVariant.RELAX)
        kept, inferences = harness._pic_filter(race, relax)
        assert len(kept) <= len(relax)
        assert inferences >= len(relax) * 0 and inferences <= len(relax) * (
            harness.config.pic_probe_schedules
        )

    def test_target_blocks_needs_every_block(self, dataset_builder):
        writer, reader = dataset_builder.corpus.entries[:2]
        graph = dataset_builder.graph_for(writer, reader, [])
        blocks = sorted(set(graph.node_blocks.tolist()))[:2]
        target = TargetBlocks(blocks)
        everything = np.ones(graph.num_nodes, dtype=bool)
        assert target.is_interesting(graph, everything)
        for block in blocks:
            missing = everything & (graph.node_blocks != block)
            assert not target.is_interesting(graph, missing)

    @pytest.mark.parametrize(
        "predictor, expected",
        # (kept, probes scored) of the hand-written probe loop this
        # filter replaced, on the same tiny deployment and seed.
        [("tiny", (12, 12)), ("coin", (4, 31))],
    )
    def test_first_hit_count_is_pinned(
        self, dataset_builder, tiny_model, race, predictor, expected
    ):
        """The filter is one ``select`` with ``budget=1`` per CTI: it
        stops at the first hit, and it scores exactly the probes the
        hand-written loop scored. The coin's random bitmaps make probes
        miss, so the stop rule binds at varying depths."""
        harness = RazzerHarness(
            dataset_builder,
            predictor=tiny_model if predictor == "tiny" else FairCoin(seed=5),
            config=RazzerConfig(
                schedules_per_cti=6, max_candidates=40, pic_probe_schedules=2
            ),
            seed=0,
        )
        relax = harness.candidates(race, RazzerVariant.RELAX)
        kept, inferences = harness._pic_filter(race, relax)
        assert (len(kept), inferences) == expected
        assert inferences <= len(relax) * 3

    def test_pic_variant_requires_predictor(self, dataset_builder, race):
        harness = RazzerHarness(dataset_builder, predictor=None, seed=0)
        with pytest.raises(ValueError):
            harness.run_variant(race, RazzerVariant.PIC)


class TestOutcomes:
    def test_run_variant_structure(self, harness, race):
        outcome = harness.run_variant(race, RazzerVariant.STRICT)
        assert outcome.variant is RazzerVariant.STRICT
        assert outcome.num_true_positive <= outcome.num_ctis
        if outcome.num_true_positive == 0:
            assert outcome.avg_hours is None
            assert not outcome.reproduced
        else:
            assert outcome.avg_hours is not None
            assert outcome.worst_hours is not None
            assert outcome.avg_hours <= outcome.worst_hours + 1e-9

    def test_queue_time_logic(self, harness):
        # One TP at cost 2 schedules among two non-TPs at 6 schedules each.
        avg, worst = harness._queue_times([6, 2, 6], [False, True, False])
        seconds = harness.config.costs.execution_seconds
        assert worst == pytest.approx((6 + 6 + 2) * seconds / 3600.0)
        assert avg is not None and 0 < avg <= worst

    def test_pic_hours_price_executions_and_inferences(self, harness, kernel):
        """A PIC outcome's hours are its verification executions priced
        plus its filter's inferences priced."""
        race = kernel.bugs[4]  # reproduced under this harness's budgets
        outcome = harness.run_variant(race, RazzerVariant.PIC)
        assert outcome.reproduced and outcome.inference_count > 0
        kept, inferences = harness._pic_filter(
            race, harness.candidates(race, RazzerVariant.RELAX)
        )
        verified = [harness._verify_cti(race, *pair) for pair in kept]
        avg, worst = harness._queue_times(
            [used for _, used in verified], [hit for hit, _ in verified]
        )
        costs = harness.config.costs
        filter_hours = inferences * costs.inference_seconds / 3600.0
        assert inferences == outcome.inference_count
        assert outcome.worst_hours == pytest.approx(worst + filter_hours, rel=1e-12)
        assert outcome.avg_hours == pytest.approx(avg + filter_hours, rel=1e-12)

    def test_queue_time_no_tp(self, harness):
        assert harness._queue_times([5, 5], [False, False]) == (None, None)
