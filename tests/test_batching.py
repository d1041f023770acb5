"""Tests for mini-batched graph training."""

import numpy as np
import pytest

from repro import rng as rngmod
from repro.errors import DatasetError
from repro.ml.batching import iter_batches, merge_examples
from repro.ml.pic import PICConfig, PICModel


class TestMerge:
    def test_counts_add_up(self, small_splits):
        parts = small_splits.train[:3]
        merged = merge_examples(parts)
        assert merged.num_nodes == sum(p.num_nodes for p in parts)
        assert merged.graph.num_edges == sum(p.graph.num_edges for p in parts)
        assert merged.labels.shape == (merged.num_nodes,)
        assert merged.num_dataflow_edges == sum(
            p.num_dataflow_edges for p in parts
        )

    def test_edges_stay_within_components(self, small_splits):
        parts = small_splits.train[:3]
        merged = merge_examples(parts)
        offsets = np.cumsum([0] + [p.num_nodes for p in parts])
        for src, dst, _ in merged.graph.edges:
            src_component = np.searchsorted(offsets, src, side="right") - 1
            dst_component = np.searchsorted(offsets, dst, side="right") - 1
            assert src_component == dst_component

    def test_empty_batch_rejected(self):
        with pytest.raises(DatasetError):
            merge_examples([])

    def test_dataflow_rows_point_at_inter_edges(self, small_splits):
        from repro.graphs.ctgraph import EDGE_INTER_DATAFLOW

        merged = merge_examples(small_splits.train[:4])
        for row in merged.dataflow_edge_rows:
            assert merged.graph.edges[row, 2] == EDGE_INTER_DATAFLOW


class TestEquivalence:
    def test_batched_forward_matches_individual(self, dataset_builder, small_splits):
        """Message passing never crosses components: the merged forward
        must reproduce each graph's logits exactly."""
        vocabulary = dataset_builder.vocabulary
        model = PICModel(
            PICConfig(
                vocab_size=len(vocabulary),
                pad_id=vocabulary.pad_id,
                token_dim=8,
                hidden_dim=12,
                num_layers=2,
            ),
            seed=0,
        )
        parts = small_splits.train[:3]
        merged = merge_examples(parts)
        batched = model.predict_proba(merged.graph)
        offset = 0
        for part in parts:
            individual = model.predict_proba(part.graph)
            chunk = batched[offset : offset + part.num_nodes]
            assert np.allclose(individual, chunk, atol=1e-9)
            offset += part.num_nodes


class TestWeightsAndIteration:
    def test_iter_batches_covers_everything(self, small_splits):
        examples = small_splits.train[:7]
        batches = list(iter_batches(examples, rngmod.make_rng(0)))
        assert sorted(map(id, batches)) == sorted(map(id, examples))

    def test_batch_size_one_passthrough(self, small_splits):
        """One graph per step, in the order of one seeded permutation."""
        examples = small_splits.train[:3]
        batches = list(iter_batches(examples, rngmod.make_rng(0)))
        order = rngmod.make_rng(0).permutation(len(examples))
        assert all(b is examples[i] for b, i in zip(batches, order))
