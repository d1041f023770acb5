"""Tests for GNN internals: adjacency preparation, caching, directions."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.ctgraph import EDGE_SCHEDULE
from repro.ml.gnn import GNNConfig, RelationalGCN, prepare_adjacency
from repro.ml.autograd import Tensor


@pytest.fixture()
def graphs_from_one_template(kernel, dataset_builder):
    from repro import rng as rngmod
    from repro.execution.pct import propose_hint_pairs

    entry_a, entry_b = dataset_builder.corpus.entries[:2]
    pairs = propose_hint_pairs(
        rngmod.make_rng(4), entry_a.trace, entry_b.trace, 2
    )
    g1 = dataset_builder.graph_for(entry_a, entry_b, list(pairs[0]))
    g2 = dataset_builder.graph_for(entry_a, entry_b, list(pairs[1]))
    return g1, g2


class TestPrepareAdjacency:
    def test_covers_all_present_types(self, small_splits):
        graph = small_splits.train[0].graph
        adjacency = prepare_adjacency(graph)
        present = {int(t) for t in np.unique(graph.edges[:, 2])}
        assert set(adjacency) == present

    def test_row_normalisation(self, small_splits):
        graph = small_splits.train[0].graph
        for forward, reverse in prepare_adjacency(graph).values():
            row_sums = np.asarray(forward.sum(axis=1)).ravel()
            # Rows with any entries sum to 1 (1/in-degree weights).
            nonzero = row_sums[row_sums > 0]
            assert np.allclose(nonzero, 1.0)

    def test_per_graph_memo(self, small_splits):
        graph = small_splits.train[0].graph
        first = prepare_adjacency(graph)
        second = prepare_adjacency(graph)
        assert first is second

    def test_template_shares_base_types(self, graphs_from_one_template):
        g1, g2 = graphs_from_one_template
        a1 = prepare_adjacency(g1)
        a2 = prepare_adjacency(g2)
        for edge_type in a1:
            if edge_type == EDGE_SCHEDULE:
                continue
            assert a1[edge_type] is a2[edge_type], edge_type

    def test_schedule_adjacency_not_shared(self, graphs_from_one_template):
        g1, g2 = graphs_from_one_template
        a1 = prepare_adjacency(g1)
        a2 = prepare_adjacency(g2)
        if EDGE_SCHEDULE in a1 and EDGE_SCHEDULE in a2:
            assert a1[EDGE_SCHEDULE] is not a2[EDGE_SCHEDULE]


class TestDirections:
    def test_unidirectional_has_half_the_weights(self):
        bi = RelationalGCN(GNNConfig(hidden_dim=8, num_layers=2, bidirectional=True))
        uni = RelationalGCN(GNNConfig(hidden_dim=8, num_layers=2, bidirectional=False))
        bi_edge_params = sum(
            1 for p in bi.parameters() if ".type" in p.name
        )
        uni_edge_params = sum(
            1 for p in uni.parameters() if ".type" in p.name
        )
        assert bi_edge_params == 2 * uni_edge_params

    def test_reverse_direction_carries_information(self, small_splits):
        """With bidirectional passing, zeroing an edge's *destination*
        must perturb the *source* node's output."""
        graph = small_splits.train[0].graph
        gnn = RelationalGCN(GNNConfig(hidden_dim=8, num_layers=1), seed=3)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(graph.num_nodes, 8))
        src = int(graph.edges[0, 0])
        dst = int(graph.edges[0, 1])
        base = gnn.forward_numpy(h, graph)
        h2 = h.copy()
        h2[dst] = 0.0
        changed = gnn.forward_numpy(h2, graph)
        assert not np.allclose(base[src], changed[src])

    def test_directions_share_a_template_but_not_its_plans(
        self, graphs_from_one_template
    ):
        """Regression: batch plans were cached per template without the
        direction count, so a one-direction model scoring a template a
        two-direction model had planned indexed a reverse weight it does
        not have. A run of several graphs without a template pass reads
        the one plan once per graph: each graph's rows are its own."""
        first, second = graphs_from_one_template
        run = [first, second, first]
        n = first.num_nodes
        h = np.random.default_rng(1).normal(size=(n * len(run), 8))
        for bidirectional in (True, False):
            gnn = RelationalGCN(
                GNNConfig(hidden_dim=8, num_layers=2, bidirectional=bidirectional),
                seed=2,
            )
            alone = [
                gnn.forward_numpy(
                    h[j * n : (j + 1) * n], dataclasses.replace(graph, base_cache={})
                )
                for j, graph in enumerate(run)
            ]
            assert np.array_equal(gnn.forward_numpy(h[:n], first), alone[0])
            assert np.array_equal(
                gnn.forward_numpy_batch(h.copy(), run), np.concatenate(alone)
            )

    def test_parameter_names_unique(self):
        gnn = RelationalGCN(GNNConfig(hidden_dim=8, num_layers=3), seed=0)
        names = [p.name for p in gnn.parameters()]
        assert len(names) == len(set(names))
