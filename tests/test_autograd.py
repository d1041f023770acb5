"""Tests for the NumPy autograd: every op numerically grad-checked."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.ml.autograd import (
    Parameter,
    Tensor,
    bce_with_logits,
    concat_rows,
    dropout,
    embedding_mean,
    gather_rows,
    masked_mean,
    matmul,
    propagate,
    relational_layer,
    relu,
    softmax_cross_entropy,
    spmm,
)

EPS = 1e-6
TOL = 1e-6


def numeric_grad(parameter, compute_loss):
    grad = np.zeros_like(parameter.data)
    flat = parameter.data.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        up = compute_loss()
        flat[i] = original - EPS
        down = compute_loss()
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * EPS)
    return grad


def check(parameter, build_loss):
    loss = build_loss()
    loss.backward()
    analytic = parameter.grad.copy()
    numeric = numeric_grad(parameter, lambda: build_loss().item())
    assert np.abs(analytic - numeric).max() < 1e-4


class TestElementwise:
    def test_add_broadcast_bias(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4,)), name="b")
        check(b, lambda: ((x + b) * (x + b)).sum())

    def test_mul_gradients(self):
        rng = np.random.default_rng(1)
        a = Parameter(rng.normal(size=(2, 3)), name="a")
        c = Tensor(rng.normal(size=(2, 3)))
        check(a, lambda: (a * c).sum())

    def test_sub_and_neg(self):
        rng = np.random.default_rng(2)
        a = Parameter(rng.normal(size=(2, 2)), name="a")
        check(a, lambda: ((a - 3.0) * (-a)).sum())

    def test_mean(self):
        rng = np.random.default_rng(3)
        a = Parameter(rng.normal(size=(5,)), name="a")
        check(a, lambda: (a * a).mean())

    def test_relu(self):
        rng = np.random.default_rng(4)
        a = Parameter(rng.normal(size=(4, 4)) + 0.05, name="a")
        check(a, lambda: (relu(a) * relu(a)).sum())


class TestMatmul:
    def test_left_gradient(self):
        rng = np.random.default_rng(5)
        a = Parameter(rng.normal(size=(3, 4)), name="a")
        b = Tensor(rng.normal(size=(4, 2)))
        check(a, lambda: matmul(a, b).sum())

    def test_right_gradient(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4, 2)), name="b")
        check(b, lambda: (matmul(a, b) * matmul(a, b)).sum())


class TestGatherAndPropagate:
    def test_gather_rows_2d_indices(self):
        rng = np.random.default_rng(7)
        table = Parameter(rng.normal(size=(6, 3)), name="t")
        ids = np.array([[0, 2, 5], [1, 1, 3]])
        check(table, lambda: (gather_rows(table, ids) * 0.5).sum())

    def test_propagate(self):
        rng = np.random.default_rng(8)
        h = Parameter(rng.normal(size=(5, 3)), name="h")
        src = np.array([0, 1, 2, 4])
        dst = np.array([1, 2, 2, 0])
        weights = np.array([1.0, 0.5, 0.5, 2.0])
        def loss():
            out = propagate(h, src, dst, 5, weights)
            return (out * out).sum()

        check(h, loss)

    def test_spmm_matches_propagate(self):
        rng = np.random.default_rng(9)
        h_data = rng.normal(size=(5, 3))
        src = np.array([0, 1, 2, 4])
        dst = np.array([1, 2, 2, 0])
        weights = np.array([1.0, 0.5, 0.5, 2.0])
        matrix = sp.csr_matrix((weights, (dst, src)), shape=(5, 5))
        dense = propagate(Tensor(h_data), src, dst, 5, weights).data
        sparse = spmm(matrix, Tensor(h_data)).data
        assert np.allclose(dense, sparse)

    def test_spmm_gradient(self):
        rng = np.random.default_rng(10)
        h = Parameter(rng.normal(size=(4, 2)), name="h")
        matrix = sp.csr_matrix(
            (np.array([1.0, 0.5]), (np.array([0, 2]), np.array([1, 3]))),
            shape=(4, 4),
        )
        check(h, lambda: (spmm(matrix, h) * spmm(matrix, h)).sum())

    @pytest.mark.parametrize("name", ["h", "self", "bias", "w0", "w1"])
    def test_relational_layer_gradient(self, name):
        rng = np.random.default_rng(14)
        params = {
            "h": Parameter(rng.normal(size=(5, 3)), name="h"),
            "self": Parameter(rng.normal(size=(3, 3)), name="self"),
            "bias": Parameter(rng.normal(size=(3,)), name="bias"),
            "w0": Parameter(rng.normal(size=(3, 3)), name="w0"),
            "w1": Parameter(rng.normal(size=(3, 3)), name="w1"),
        }
        matrix = sp.csr_matrix(
            (np.array([1.0, 0.5, 0.5, 1.0]), ([1, 2, 2, 0], [0, 1, 3, 4])),
            shape=(5, 5),
        )
        terms = [(matrix, params["w0"]), (matrix.T.tocsr(), params["w1"])]
        weights = Tensor(rng.normal(size=(5, 3)))

        def loss():
            out = relational_layer(
                params["h"], params["self"], params["bias"], terms
            )
            return (out * weights).sum()

        check(params[name], loss)


class TestPoolingAndLosses:
    def test_masked_mean(self):
        rng = np.random.default_rng(11)
        x = Parameter(rng.normal(size=(2, 4, 3)), name="x")
        mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1]])
        check(x, lambda: (masked_mean(x, mask) * masked_mean(x, mask)).sum())

    def test_embedding_mean_gradient(self):
        rng = np.random.default_rng(15)
        table = Parameter(rng.normal(size=(4, 3)), name="t")
        # repeated tokens, and an all-pad row (pad id 0)
        ids = np.array([[2, 2, 0, 3], [0, 0, 0, 0], [1, 3, 1, 1]])
        def loss():
            pooled = embedding_mean(table, ids, 0)
            return (pooled * pooled).sum()

        check(table, loss)

    def test_bce_gradient(self):
        rng = np.random.default_rng(12)
        z = Parameter(rng.normal(size=(6, 1)), name="z")
        y = (rng.random((6, 1)) > 0.5).astype(float)
        check(z, lambda: bce_with_logits(z, y))

    def test_bce_weighted_gradient(self):
        rng = np.random.default_rng(13)
        z = Parameter(rng.normal(size=(5, 1)), name="z")
        y = (rng.random((5, 1)) > 0.5).astype(float)
        w = rng.random((5, 1)) + 0.1
        check(z, lambda: bce_with_logits(z, y, w))

    def test_bce_extreme_logits_stable(self):
        z = Tensor(np.array([[1000.0], [-1000.0]]), requires_grad=True)
        y = np.array([[1.0], [0.0]])
        loss = bce_with_logits(z, y)
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-6

    def test_softmax_ce_gradient(self):
        rng = np.random.default_rng(14)
        logits = Parameter(rng.normal(size=(4, 6)), name="l")
        targets = np.array([0, 5, 2, 2])
        check(logits, lambda: softmax_cross_entropy(logits, targets))

    def test_concat_rows_gradient(self):
        rng = np.random.default_rng(15)
        a = Parameter(rng.normal(size=(3, 2)), name="a")
        b = Tensor(rng.normal(size=(3, 4)))
        check(a, lambda: (concat_rows([a, b]) * concat_rows([a, b])).sum())


class TestDropout:
    def test_identity_when_not_training(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(4, 4)))
        out = dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_preserves_expectation_roughly(self):
        rng = np.random.default_rng(17)
        x = Tensor(np.ones((200, 50)))
        out = dropout(x, 0.3, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.05


class TestBackwardPlumbing:
    def test_grad_accumulates_across_uses(self):
        a = Parameter(np.array([2.0]), name="a")
        loss = (a * a) + (a * 3.0)
        loss.backward()
        # d/da (a^2 + 3a) = 2a + 3 = 7
        assert np.allclose(a.grad, [7.0])

    def test_no_grad_for_constant_tensors(self):
        x = Tensor(np.ones((2, 2)))
        y = x * 2.0
        y.backward(np.ones((2, 2)))
        assert x.grad is None

    def test_zero_grad(self):
        a = Parameter(np.array([1.0]), name="a")
        (a * a).backward()
        a.zero_grad()
        assert a.grad is None

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_unbroadcast_shapes(self, rows, cols):
        """Adding a row vector to a matrix back-propagates correct shapes."""
        rng = np.random.default_rng(rows * 10 + cols)
        m = Parameter(rng.normal(size=(rows, cols)), name="m")
        v = Parameter(rng.normal(size=(1, cols)), name="v")
        loss = ((m + v) * (m + v)).sum()
        loss.backward()
        assert m.grad.shape == (rows, cols)
        assert v.grad.shape == (1, cols)
