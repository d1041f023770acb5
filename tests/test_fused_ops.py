"""The fused training ops are the composed ops, bit for bit.

Training runs :func:`~repro.ml.autograd.embedding_mean` in place of
``gather_rows`` + ``masked_mean`` and one
:func:`~repro.ml.autograd.relational_layer` per GNN layer in place of the
``matmul``/``spmm``/``+``/``relu`` chain. Forward values and every
gradient must equal, byte for byte (signed zeros included), what the
composed ops give under the zero-initialised gradient accumulation and
the ``np.add.at`` row-gather backward they were written with. Trained
weights are pinned as state-dict digests the composed ops produced.
"""

import dataclasses
import hashlib
from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs.ctgraph import EDGE_SCHEDULE, NUM_EDGE_TYPES
from repro.ml.autograd import (
    Parameter,
    Tensor,
    embedding_mean,
    gather_rows,
    masked_mean,
    matmul,
    relational_layer,
    relu,
    rowwise_sum,
    spmm,
)
from repro.ml.gnn import _normalized_pair, prepare_adjacency
from repro.ml.training import fine_tune_pic

#: sha256 of the sorted ``(name, bytes)`` state dict, as trained by the
#: composed ops: ``tests/conftest.py``'s ``trained_snowcat`` and
#: ``tiny_model``, and ``fine_tune_pic`` of the former on its own splits.
TRAINED_SNOWCAT_SHA = "54e2befd315af663d9932b29f70dfb7aa067af27482a78f562902b18a73d9a49"
FINE_TUNED_SHA = "9b1f40c4b32bf6d12d3c8cae23a6eeb4c7583b69bcdbfff8dbe32fe378dd1656"
TINY_MODEL_SHA = "095210d0b4af3aaef4d424b24a37ce81accb3a23e51e22edbc87aeccad117fb1"


def _state_sha(model):
    digest = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


# -- the composed references ---------------------------------------------------


def _zeros_accumulate(self, grad):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += grad


def _add_at_gather_rows(table, indices):
    indices = np.asarray(indices, dtype=np.int64)
    out = Tensor(table.data[indices], parents=(table,))

    def backward(grad):
        if table.requires_grad:
            accumulated = np.zeros_like(table.data)
            np.add.at(accumulated, indices, grad)
            table.accumulate(accumulated)

    out._backward = backward
    return out


def _composed_layer(h, w_self, bias, terms):
    out = matmul(h, w_self) + bias
    for matrix, weight in terms:
        out = out + matmul(spmm(matrix, h), weight)
    return relu(out)


def _composed_pool(table, token_ids, pad_id):
    embedded = _add_at_gather_rows(table, token_ids)
    return masked_mean(embedded, token_ids != pad_id)


@contextmanager
def _composed_accumulation():
    with mock.patch.object(Tensor, "accumulate", _zeros_accumulate):
        yield


def _same_bytes(left, right):
    return left.dtype == right.dtype and left.tobytes() == right.tobytes()


# -- random inputs ---------------------------------------------------------------


@st.composite
def _graphs(draw):
    """(num_nodes, edges): a few edge types, so some are always missing."""
    num_nodes = draw(st.integers(1, 9))
    node = st.integers(0, num_nodes - 1)
    edges = draw(
        st.lists(
            st.tuples(node, node, st.integers(0, NUM_EDGE_TYPES - 2)), max_size=24
        )
    )
    return num_nodes, np.array(edges, dtype=np.int64).reshape(-1, 3)


def _stack(layer_op, gather_op, num_nodes, edges, layers, bidirectional, dataflow,
           seed):
    """Run a GNN stack (and optionally the bilinear dataflow head) and
    back-propagate; returns the output and every gradient."""
    rng = np.random.default_rng(seed)
    width = 5
    directions = 2 if bidirectional else 1
    h0 = Parameter(rng.normal(size=(num_nodes, width)), name="h0")
    params = [h0]
    h = h0
    for layer in range(layers):
        w_self = Parameter(rng.normal(size=(width, width)), name=f"{layer}.self")
        bias = Parameter(rng.normal(size=width), name=f"{layer}.bias")
        terms = []
        for edge_type in np.unique(edges[:, 2]):
            rows = edges[edges[:, 2] == edge_type]
            pair = _normalized_pair(rows[:, 0], rows[:, 1], num_nodes)
            for direction in range(directions):
                weight = Parameter(
                    rng.normal(size=(width, width)),
                    name=f"{layer}.{edge_type}.{direction}",
                )
                terms.append((pair[direction], weight))
        params += [w_self, bias] + [weight for _, weight in terms]
        h = layer_op(h, w_self, bias, terms)
    loss = (h * Tensor(rng.normal(size=h.shape))).sum()
    if dataflow:
        w_flow = Parameter(rng.normal(size=(width, width)), name="flow")
        params.append(w_flow)
        src = rng.integers(0, num_nodes, size=6)
        dst = rng.integers(0, num_nodes, size=6)
        scores = rowwise_sum(matmul(gather_op(h, src), w_flow) * gather_op(h, dst))
        loss = loss + (scores * Tensor(rng.normal(size=(6, 1)))).sum()
    loss.backward()
    return h.data, {p.name: p.grad for p in params}


class TestRelationalLayer:
    @settings(max_examples=60, deadline=None)
    @given(
        graph=_graphs(),
        layers=st.sampled_from([1, 4]),
        bidirectional=st.booleans(),
        dataflow=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_composed_ops_bitwise(
        self, graph, layers, bidirectional, dataflow, seed
    ):
        args = (*graph, layers, bidirectional, dataflow, seed)
        out, grads = _stack(relational_layer, gather_rows, *args)
        with _composed_accumulation():
            ref_out, ref_grads = _stack(_composed_layer, _add_at_gather_rows, *args)
        assert _same_bytes(out, ref_out)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            if ref_grads[name] is None:
                assert grad is None, name
            else:
                assert _same_bytes(grad, ref_grads[name]), name


class TestEmbeddingMean:
    @settings(max_examples=60, deadline=None)
    @given(
        vocab=st.integers(2, 5),
        width=st.integers(2, 6),
        rows=st.integers(1, 6),
        positions=st.integers(1, 7),
        pad_rows=st.lists(st.booleans(), min_size=6, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_matches_composed_ops_bitwise(
        self, vocab, width, rows, positions, pad_rows, seed
    ):
        """Repeated tokens (a vocabulary of at most 5), all-pad rows."""
        rng = np.random.default_rng(seed)
        pad_id = int(rng.integers(vocab))
        token_ids = rng.integers(0, vocab, size=(rows, positions))
        token_ids[np.array(pad_rows[:rows])] = pad_id
        table_data = rng.normal(size=(vocab, width))
        weights = rng.normal(size=(rows, width))

        def run(pool):
            table = Parameter(table_data.copy(), name="table")
            pooled = pool(table, token_ids, pad_id)
            (pooled * Tensor(weights)).sum().backward()
            return pooled.data, table.grad

        pooled, grad = run(embedding_mean)
        with _composed_accumulation():
            ref_pooled, ref_grad = run(_composed_pool)
        assert _same_bytes(pooled, ref_pooled)
        assert _same_bytes(grad, ref_grad)


class TestGatherRows:
    @settings(max_examples=40, deadline=None)
    @given(
        indices=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_backward_matches_add_at(self, indices, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(len(indices), 3))
        upstream[::3] = -0.0

        def run(gather):
            table = Parameter(data.copy())
            (gather(table, indices) * Tensor(upstream)).sum().backward()
            return table.grad

        grad = run(gather_rows)
        with _composed_accumulation():
            reference = run(_add_at_gather_rows)
        assert _same_bytes(grad, reference)


class TestFirstGradient:
    def test_is_a_copy_with_positive_zeros(self):
        tensor = Tensor(np.zeros(3), requires_grad=True)
        grad = np.array([-0.0, 1.5, -2.0])
        tensor.accumulate(grad)
        assert tensor.grad is not grad
        assert _same_bytes(tensor.grad, np.array([0.0, 1.5, -2.0]))


class TestTrainedWeights:
    def test_trained_deployment_matches_pin(self, trained_snowcat):
        assert _state_sha(trained_snowcat.model) == TRAINED_SNOWCAT_SHA

    def test_fine_tune_matches_pin(self, trained_snowcat):
        splits = trained_snowcat.splits
        result = fine_tune_pic(trained_snowcat.model, splits.train, splits.validation)
        assert _state_sha(result.model) == FINE_TUNED_SHA
        assert _state_sha(trained_snowcat.model) == TRAINED_SNOWCAT_SHA

    def test_golden_model_matches_pin(self, tiny_model):
        assert _state_sha(tiny_model) == TINY_MODEL_SHA

    def test_training_leaves_templates_read_only_and_inference_unchanged(
        self, trained_snowcat
    ):
        """The backward reads each published adjacency through its
        transposed kernel and writes nothing: the arrays stay frozen and
        a trained-on template scores exactly as a fresh copy does."""
        model = trained_snowcat.model
        graphs = [example.graph for example in trained_snowcat.splits.train]
        published = 0
        for graph in graphs:
            for edge_type, pair in prepare_adjacency(graph).items():
                if edge_type == EDGE_SCHEDULE:
                    continue
                for matrix in pair:
                    for array in (matrix.data, matrix.indices, matrix.indptr):
                        assert not array.flags.writeable
                published += 1
        assert published
        for graph in graphs:
            fresh = dataclasses.replace(graph, base_cache={})
            assert _same_bytes(model.predict_proba(graph), model.predict_proba(fresh))
