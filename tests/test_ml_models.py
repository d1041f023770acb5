"""Tests for the encoder, GNN, PIC model, optimizer and baselines."""

import numpy as np
import pytest

from repro import rng as rngmod
from repro.errors import CheckpointError, ModelError
from repro.graphs.tokens import build_vocabulary
from repro.ml.autograd import Parameter, Tensor
from repro.ml.baselines import (
    AllPositive,
    BiasedCoin,
    FairCoin,
    observed_urb_positive_rate,
)
from repro.ml.encoder import AsmEncoder, EncoderConfig, pretrain_encoder
from repro.ml.gnn import GNNConfig, RelationalGCN
from repro.ml.optim import Adam
from repro.ml.pic import PICConfig, PICModel


@pytest.fixture(scope="module")
def vocabulary(kernel):
    return build_vocabulary(kernel)


@pytest.fixture(scope="module")
def sample_graph(small_splits):
    return small_splits.train[0].graph


class TestAdam:
    def test_minimises_quadratic(self):
        x = Parameter(np.array([5.0, -3.0]), name="x")
        optimizer = Adam([x], learning_rate=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            optimizer.step()
        assert np.abs(x.data).max() < 0.05

    def test_clip_norm_bounds_update(self):
        x = Parameter(np.array([1e6]), name="x")
        optimizer = Adam([x], learning_rate=0.1, clip_norm=1.0)
        optimizer.zero_grad()
        (x * x).backward()
        assert np.abs(x.grad).max() > 1.0
        optimizer._clip()
        assert np.abs(x.grad).max() <= 1.0 + 1e-9

    def test_skips_parameters_without_grad(self):
        x = Parameter(np.array([1.0]), name="x")
        optimizer = Adam([x], learning_rate=0.1)
        optimizer.step()  # no grad: no crash, no change
        assert x.data[0] == 1.0


class TestEncoder:
    def test_output_shape(self, vocabulary):
        encoder = AsmEncoder(EncoderConfig(vocab_size=len(vocabulary)), seed=0)
        ids = np.zeros((5, 10), dtype=np.int64)
        out = encoder.encode(ids, vocabulary.pad_id)
        assert out.shape == (5, encoder.config.output_dim)

    def test_pretraining_reduces_loss(self, kernel, vocabulary):
        encoder = AsmEncoder(
            EncoderConfig(vocab_size=len(vocabulary), token_dim=16, output_dim=24),
            seed=0,
        )
        result = pretrain_encoder(
            encoder, kernel, vocabulary, epochs=3, seed=0, batch_size=128
        )
        assert result.improved
        assert result.final_loss < result.losses[0]

    def test_padding_ignored_in_pooling(self, vocabulary):
        encoder = AsmEncoder(EncoderConfig(vocab_size=len(vocabulary)), seed=0)
        short = np.full((1, 8), vocabulary.pad_id, dtype=np.int64)
        short[0, :3] = [5, 6, 7]
        longer = np.full((1, 16), vocabulary.pad_id, dtype=np.int64)
        longer[0, :3] = [5, 6, 7]
        a = encoder.encode(short, vocabulary.pad_id).data
        b = encoder.encode(longer, vocabulary.pad_id).data
        assert np.allclose(a, b)


class TestGNN:
    def test_forward_shape(self, sample_graph):
        gnn = RelationalGCN(GNNConfig(hidden_dim=16, num_layers=2), seed=1)
        h = Tensor(np.random.default_rng(0).normal(size=(sample_graph.num_nodes, 16)))
        out = gnn.forward(h, sample_graph)
        assert out.shape == (sample_graph.num_nodes, 16)

    def test_forward_numpy_matches_forward(self, sample_graph):
        gnn = RelationalGCN(GNNConfig(hidden_dim=16, num_layers=3), seed=1)
        h = np.random.default_rng(0).normal(size=(sample_graph.num_nodes, 16))
        slow = gnn.forward(Tensor(h), sample_graph).data
        kept = h.copy()
        fast = gnn.forward_numpy(h, sample_graph)
        assert np.allclose(slow, fast)
        # The batch entry works in place; the single-graph one must not,
        # or the perturbation tests below would perturb their own output.
        assert fast is not h
        np.testing.assert_array_equal(h, kept)

    def test_messages_flow_along_edges(self, sample_graph):
        """Zeroing one node's input must change its neighbours' output."""
        gnn = RelationalGCN(GNNConfig(hidden_dim=8, num_layers=1), seed=2)
        rng = np.random.default_rng(1)
        h = rng.normal(size=(sample_graph.num_nodes, 8))
        base = gnn.forward_numpy(h, sample_graph)
        src = int(sample_graph.edges[0, 0])
        dst = int(sample_graph.edges[0, 1])
        h2 = h.copy()
        h2[src] = 0.0
        changed = gnn.forward_numpy(h2, sample_graph)
        assert not np.allclose(base[dst], changed[dst])


class TestPICModel:
    def _config(self, vocabulary, **overrides):
        params = dict(
            vocab_size=len(vocabulary),
            pad_id=vocabulary.pad_id,
            token_dim=8,
            hidden_dim=12,
            num_layers=2,
            name="PIC-test",
        )
        params.update(overrides)
        return PICConfig(**params)

    def test_predict_proba_shape_and_range(self, vocabulary, sample_graph):
        model = PICModel(self._config(vocabulary), seed=0)
        proba = model.predict_proba(sample_graph)
        assert proba.shape == (sample_graph.num_nodes,)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_predict_uses_threshold(self, vocabulary, sample_graph):
        model = PICModel(self._config(vocabulary), seed=0)
        model.threshold = 0.0
        assert model.predict(sample_graph).all()
        model.threshold = 1.1
        assert not model.predict(sample_graph).any()

    def test_fast_path_matches_autograd_path(self, vocabulary, sample_graph):
        model = PICModel(self._config(vocabulary), seed=0)
        z = model.logits(sample_graph, training=False).data[:, 0]
        slow = 1.0 / (1.0 + np.exp(-z))
        fast = model.predict_proba(sample_graph)
        assert np.allclose(slow, fast)

    def test_loss_decreases_with_training(self, vocabulary, small_splits):
        model = PICModel(self._config(vocabulary), seed=0)
        example = small_splits.train[0]
        optimizer = Adam(model.parameters(), learning_rate=3e-3)
        first = model.loss(example).item()
        for _ in range(15):
            optimizer.zero_grad()
            loss = model.loss(example)
            loss.backward()
            optimizer.step()
        assert model.loss(example, training=False).item() < first

    def test_checkpoint_roundtrip(self, tmp_path, vocabulary, sample_graph):
        model = PICModel(self._config(vocabulary), seed=0)
        model.threshold = 0.3
        path = str(tmp_path / "model.npz")
        model.save(path)
        restored = PICModel.restore(path, self._config(vocabulary), seed=99)
        assert restored.threshold == 0.3
        assert np.allclose(
            model.predict_proba(sample_graph), restored.predict_proba(sample_graph)
        )

    def test_load_rejects_shape_mismatch(self, vocabulary):
        model = PICModel(self._config(vocabulary), seed=0)
        state = model.state_dict()
        state["pic.w_out"] = np.zeros((99, 1))
        with pytest.raises(CheckpointError):
            model.load_state_dict(state)

    def test_clone_is_independent(self, vocabulary, sample_graph):
        model = PICModel(self._config(vocabulary), seed=0)
        twin = model.clone(name="twin")
        before = model.predict_proba(sample_graph)
        twin.w_out.data += 10.0
        after = model.predict_proba(sample_graph)
        assert np.allclose(before, after)

    def test_encoder_mismatch_rejected(self, vocabulary):
        encoder = AsmEncoder(
            EncoderConfig(vocab_size=len(vocabulary), token_dim=8, output_dim=99),
            seed=0,
        )
        with pytest.raises(ModelError):
            PICModel(self._config(vocabulary), seed=0, pretrained_encoder=encoder)

    def test_inference_cache_invalidated_by_training(
        self, vocabulary, small_splits
    ):
        model = PICModel(self._config(vocabulary), seed=0)
        example = small_splits.train[0]
        before = model.predict_proba(example.graph)
        optimizer = Adam(model.parameters(), learning_rate=0.05)
        for _ in range(3):
            optimizer.zero_grad()
            model.loss(example).backward()
            optimizer.step()
        after = model.predict_proba(example.graph)
        assert not np.allclose(before, after)

    def test_batch_path_sees_parameter_updates(self, vocabulary, small_splits):
        """The per-template feature cache must not outlive an optimiser
        step, with no single-graph call in between to happen to clear it."""
        model = PICModel(self._config(vocabulary), seed=0)
        example = small_splits.train[0]
        graphs = [example.graph, example.graph]
        before = model.predict_proba_batch(graphs)
        optimizer = Adam(model.parameters(), learning_rate=0.05)
        for _ in range(3):
            optimizer.zero_grad()
            model.loss(example).backward()
            optimizer.step()
        after = model.predict_proba_batch(graphs)
        fresh = model.clone().predict_proba_batch(graphs)
        assert not np.allclose(before[0], after[0])
        for stepped, cloned in zip(after, fresh):
            np.testing.assert_array_equal(stepped, cloned)


class TestBaselines:
    def test_all_positive(self, sample_graph):
        predictor = AllPositive()
        assert predictor.predict(sample_graph).all()
        assert (predictor.predict_proba(sample_graph) == 1.0).all()

    def test_fair_coin_rate(self, sample_graph):
        predictor = FairCoin(seed=0)
        draws = np.concatenate([predictor.predict(sample_graph) for _ in range(50)])
        assert 0.4 < draws.mean() < 0.6

    def test_biased_coin_rate(self, sample_graph):
        predictor = BiasedCoin(0.05, seed=0)
        draws = np.concatenate([predictor.predict(sample_graph) for _ in range(100)])
        assert 0.01 < draws.mean() < 0.12

    def test_biased_coin_validates_probability(self):
        with pytest.raises(ValueError):
            BiasedCoin(1.5)

    def test_observed_rate_matches_labels(self, small_splits):
        rate = observed_urb_positive_rate(small_splits.train)
        assert 0.0 <= rate <= 1.0
