"""Detail tests for the Razzer/Snowboard harness internals."""

import pytest

from repro import obs
from repro.graphs.ctgraph import schedule_key
from repro.integrations.razzer import RazzerConfig, RazzerHarness, RazzerVariant
from repro.integrations.snowboard import SnowboardConfig, SnowboardHarness
from repro.obs import MemorySink, MetricsRegistry


@pytest.fixture(scope="module")
def razzer(dataset_builder, tiny_model):
    return RazzerHarness(
        dataset_builder,
        predictor=tiny_model,
        config=RazzerConfig(schedules_per_cti=5, max_candidates=20, shuffles=10),
        seed=0,
    )


class TestRazzerMinimization:
    def test_minimized_candidates_are_single_call(self, razzer, kernel):
        for spec in kernel.bugs[:3]:
            for writer, reader in razzer.candidates(spec, RazzerVariant.RELAX):
                assert len(writer.sti) == 1
                assert len(reader.sti) == 1

    def test_minimized_ids_do_not_collide_with_corpus(self, razzer, kernel):
        corpus_ids = {
            entry.sti.sti_id for entry in razzer.graphs.corpus
        }
        for spec in kernel.bugs[:3]:
            for writer, reader in razzer.candidates(spec, RazzerVariant.RELAX):
                assert writer.sti.sti_id not in corpus_ids
                assert reader.sti.sti_id not in corpus_ids

    def test_minimized_still_triggers(self, razzer, kernel):
        """The single kept call must still reach the racing instruction
        (or its URB) — minimization may not lose the trigger."""
        for spec in kernel.bugs[:3]:
            for writer, reader in razzer.candidates(spec, RazzerVariant.RELAX):
                assert razzer._sti_triggers(writer, spec.write_iid, relaxed=True)
                assert razzer._sti_triggers(reader, spec.read_iid, relaxed=True)

    def test_candidates_deduplicated_by_call(self, razzer, kernel):
        for spec in kernel.bugs[:3]:
            seen = set()
            for writer, reader in razzer.candidates(spec, RazzerVariant.RELAX):
                key = (writer.sti.render(), reader.sti.render())
                assert key not in seen
                seen.add(key)

    def test_minimization_cache_stable(self, razzer, kernel):
        spec = kernel.bugs[0]
        first = razzer.candidates(spec, RazzerVariant.RELAX)
        second = razzer.candidates(spec, RazzerVariant.RELAX)
        assert [(w.sti.sti_id, r.sti.sti_id) for w, r in first] == [
            (w.sti.sti_id, r.sti.sti_id) for w, r in second
        ]


class TestSnowboardCaches:
    @pytest.fixture(scope="class")
    def harness(self, dataset_builder, tiny_model):
        return SnowboardHarness(
            dataset_builder,
            predictor=tiny_model,
            config=SnowboardConfig(schedules_per_cti=4, trials=4, max_cluster_size=8),
            seed=0,
        )

    def test_prediction_cache_fills_once(self, harness):
        clusters = harness.build_clusters(max_pairs_per_cti=8)
        buggy = harness.buggy_clusters(clusters)
        if not buggy:
            pytest.skip("no buggy clusters in this corpus")
        cluster = buggy[0]
        harness.evaluate_sampler(cluster, "SB-PIC(S2)", 0.5)
        scored = harness._prediction_cache[cluster.key]
        assert [c.index for c in scored] == list(range(len(cluster)))
        harness.evaluate_sampler(cluster, "SB-PIC(S1)", 0.5)
        # S1 visits the same CTIs; the cluster is not scored again.
        assert list(harness._prediction_cache) == [cluster.key]
        assert harness._prediction_cache[cluster.key] is scored

    def test_each_probe_graph_reaches_the_predictor_once(
        self, dataset_builder, tiny_model
    ):
        """Across every trial of both PIC samplers, the predictor sees
        each distinct probe graph of the cluster once."""
        harness = SnowboardHarness(
            dataset_builder,
            predictor=tiny_model,
            config=SnowboardConfig(schedules_per_cti=4, trials=4, max_cluster_size=8),
            seed=0,
        )
        buggy = harness.buggy_clusters(harness.build_clusters(max_pairs_per_cti=8))
        if not buggy:
            pytest.skip("no buggy clusters in this corpus")
        cluster = buggy[0]
        with obs.use_registry(MetricsRegistry(sink=MemorySink())) as registry:
            harness.evaluate_sampler(cluster, "SB-PIC(S2)")
            harness.evaluate_sampler(cluster, "SB-PIC(S1)")
            batched = registry.counter("inference.batched").value
            hits = registry.counter("inference.memo_hits").value
        graphs = [c.graph for c in harness._prediction_cache[cluster.key]]
        distinct = {(id(g.token_ids), schedule_key(g)) for g in graphs}
        assert batched == len(distinct)
        assert batched + hits == len(cluster)

    def test_exploration_cache_shared_across_samplers(self, harness):
        clusters = harness.build_clusters(max_pairs_per_cti=8)
        buggy = harness.buggy_clusters(clusters)
        if not buggy:
            pytest.skip("no buggy clusters in this corpus")
        cluster = buggy[0]
        harness.evaluate_sampler(cluster, "SB-RND", 0.75)
        before = len(harness._explore_cache)
        # A different sampler over the same cluster/trials mostly reuses
        # exploration outcomes.
        harness.evaluate_sampler(cluster, "SB-RND", 0.5)
        after = len(harness._explore_cache)
        assert after <= before + len(cluster) * harness.config.trials
        assert after >= before  # cache only grows
