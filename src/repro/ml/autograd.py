"""Minimal reverse-mode automatic differentiation over NumPy.

The paper trains its models with PyTorch + PyTorch Geometric; neither is
available offline, so this module provides the handful of differentiable
operations the PIC architecture needs: broadcasting arithmetic, matmul,
ReLU, row gather (embeddings), edge propagation (the sparse
gather-multiply-scatter at the heart of a GCN layer), masked mean pooling,
and fused numerically-stable losses (sigmoid-BCE and softmax-CE).

Design notes:

- A :class:`Tensor` wraps an ``ndarray`` plus an optional backward closure;
  :meth:`Tensor.backward` runs a topological sweep.
- Gradients of broadcast operands are un-broadcast by summing over the
  broadcast axes, so biases and scalar coefficients "just work".
- :class:`Parameter` marks leaf tensors the optimizer should update.
- Training runs two fused ops, :func:`embedding_mean` and
  :func:`relational_layer`, bit-identical to the composed ops they
  replace (the tests' references; see docs/PERFORMANCE.md, "Training").
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np
from scipy.sparse import _sparsetools  # the kernels ``@`` runs, minus dispatch

__all__ = [
    "Tensor",
    "Parameter",
    "matmul",
    "relu",
    "gather_rows",
    "propagate",
    "spmm",
    "rowwise_sum",
    "masked_mean",
    "embedding_mean",
    "relational_layer",
    "dropout",
    "bce_with_logits",
    "softmax_cross_entropy",
    "concat_rows",
]

ArrayLike = Union[np.ndarray, float, int]


class _CSR(NamedTuple):  # what _csr_dot reads of a (scipy) CSR matrix
    shape: Tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _csr_dot(matrix, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``matrix @ x`` or ``matrix.T @ x`` through scipy's kernel: rows start
    at zero and add their products in stored order. The transpose is the
    CSC kernel over the same arrays (``matrix.T @ x`` without building
    ``matrix.T``): a row of it adds in ascending row order of ``matrix``,
    as ``np.add.at`` does; ``1.0 * v == v`` for incidence entries."""
    rows, cols = matrix.shape[::-1] if transpose else matrix.shape
    out = np.zeros((rows, x.shape[1]))
    kernel = _sparsetools.csc_matvecs if transpose else _sparsetools.csr_matvecs
    kernel(rows, cols, x.shape[1], matrix.indptr, matrix.indices, matrix.data,
           x.ravel(), out.ravel())
    return out


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum away leading extra axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    # -- plumbing -----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # A copy (``__add__`` hands one array to both operands) that
            # maps -0.0 to +0.0, exactly as adding into zeros would.
            self.grad = grad + 0.0
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor (defaults to d(self)=1)."""
        topo: List[Tensor] = []
        visited: Set[int] = set()

        def visit(node: Tensor) -> None:
            if id(node) in visited or not node.requires_grad:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            topo.append(node)

        visit(self)
        if grad is None:
            grad = np.ones_like(self.data)
        self.accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _lift(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._lift(other)
        out = Tensor(self.data + other.data, parents=(self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other.accumulate(_unbroadcast(grad, other.data.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = Tensor._lift(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other.accumulate(_unbroadcast(grad * self.data, other.data.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-Tensor._lift(other))

    def sum(self) -> "Tensor":
        out = Tensor(self.data.sum(), parents=(self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate(np.broadcast_to(grad, self.data.shape).copy())

        out._backward = backward
        return out

    def mean(self) -> "Tensor":
        count = self.data.size
        return self.sum() * (1.0 / max(count, 1))

    def item(self) -> float:
        return float(self.data)


class Parameter(Tensor):
    """A learnable leaf tensor."""

    def __init__(self, data: ArrayLike, name: str = "") -> None:
        super().__init__(data, requires_grad=True)
        self.name = name

    __slots__ = ("name",)

    def zero_grad(self) -> None:
        self.grad = None


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(grad @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ grad)

    out._backward = backward
    return out


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = Tensor(x.data * mask, parents=(x,))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(grad * mask)

    out._backward = backward
    return out


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup (embedding): out[i] = table[indices[i]]."""
    indices = np.asarray(indices, dtype=np.int64)
    out = Tensor(table.data[indices], parents=(table,))

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            # np.add.at(zeros, indices, grad) as an incidence product; the
            # forward's indexing bounds-checked, ``%`` wraps negative indices
            rows = table.data.shape[0]
            flat = indices.ravel() % rows
            ones = np.ones(flat.size)
            incidence = _CSR((flat.size, rows), np.arange(flat.size + 1), flat, ones)
            summed = _csr_dot(incidence, grad.reshape(flat.size, -1), transpose=True)
            table.accumulate(summed.reshape(table.data.shape))

    out._backward = backward
    return out


def propagate(
    h: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    weights: np.ndarray,
) -> Tensor:
    """Sparse message passing: out[d] = Σ_{edges e: dst[e]=d} w_e · h[src[e]].

    ``weights`` is a per-edge normalisation coefficient (non-learnable).
    This single op is the core of every GCN layer.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    aggregated = np.zeros((num_nodes, h.data.shape[1]))
    if src.size:
        np.add.at(aggregated, dst, h.data[src] * weights[:, None])
    out = Tensor(aggregated, parents=(h,))

    def backward(grad: np.ndarray) -> None:
        if h.requires_grad and src.size:
            dh = np.zeros_like(h.data)
            np.add.at(dh, src, grad[dst] * weights[:, None])
            h.accumulate(dh)
        elif h.requires_grad:
            h.accumulate(np.zeros_like(h.data))

    out._backward = backward
    return out


def spmm(matrix, x: Tensor) -> Tensor:
    """Sparse-dense product ``matrix @ x`` with a constant sparse matrix.

    ``matrix`` is any scipy.sparse matrix (typically CSR); the GNN uses it
    for normalised adjacency propagation. Gradient: ``matrix.T @ grad``.
    """
    out = Tensor(matrix @ x.data, parents=(x,))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(matrix.T @ grad)

    out._backward = backward
    return out


def masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over axis 1 of a (N, T, D) tensor, restricted by mask (N, T)."""
    mask = np.asarray(mask, dtype=np.float64)
    counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)  # (N, 1)
    pooled = (x.data * mask[:, :, None]).sum(axis=1) / counts
    out = Tensor(pooled, parents=(x,))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            expanded = (grad / counts)[:, None, :] * mask[:, :, None]
            x.accumulate(expanded)

    out._backward = backward
    return out


def embedding_mean(table: Tensor, token_ids: np.ndarray, pad_id: int) -> Tensor:
    """``masked_mean(gather_rows(table, token_ids), token_ids != pad_id)``
    without the (N, T, D) tensors: ``P @ table / counts`` with ``P`` the
    incidence of the non-pad (n, t) in position order, ``P.T @ (grad /
    counts)`` back. Bit-identical for ``D >= 2`` (NumPy sums a width-1
    axis pairwise)."""
    mask = token_ids != pad_id
    per_row = mask.sum(axis=1)
    counts = np.maximum(per_row, 1).astype(np.float64)[:, None]
    indptr = np.concatenate([[0], np.cumsum(per_row)])
    vocab = table.data.shape[0]
    # the kernel does not bounds-check; indexing does, and wraps negatives
    tokens = np.arange(vocab)[token_ids[mask]]
    incidence = _CSR((len(per_row), vocab), indptr, tokens, np.ones(tokens.size))
    out = Tensor(_csr_dot(incidence, table.data) / counts, parents=(table,))

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            table.accumulate(_csr_dot(incidence, grad / counts, transpose=True))

    out._backward = backward
    return out


def relational_layer(
    h: Tensor, w_self: Tensor, bias: Tensor, terms: Sequence[Tuple[object, Tensor]]
) -> Tensor:
    """``relu(h @ w_self + bias + Σ_k (A_k @ h) @ W_k)`` as one graph node;
    ``terms`` are (constant CSR ``A_k``, ``W_k``) pairs. Same products in
    the same order as the ``matmul``/``spmm``/``+``/``relu`` chain, and
    each input's gradient summed in that chain's sweep order: into ``h``
    the last term's first, down to the first's, then the self term's.
    Intermediate gradients skip the sweep's +0.0 normalisation: a -0.0
    can only flip a zero's sign, and every sum they reach starts from
    +0.0 or ends in :meth:`Tensor.accumulate`."""
    out = h.data @ w_self.data + bias.data
    messages = []
    for matrix, weight in terms:
        message = _csr_dot(matrix, h.data)
        out += message @ weight.data
        messages.append(message)
    mask = out > 0
    parents = (h, w_self, bias) + tuple(weight for _, weight in terms)
    result = Tensor(out * mask, parents=parents)

    def backward(grad: np.ndarray) -> None:
        grad = grad * mask
        for (matrix, weight), message in zip(reversed(terms), reversed(messages)):
            if weight.requires_grad:
                weight.accumulate(message.T @ grad)
            if h.requires_grad:
                h.accumulate(_csr_dot(matrix, grad @ weight.data.T, transpose=True))
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(grad, bias.data.shape))
        if w_self.requires_grad:
            w_self.accumulate(h.data.T @ grad)
        if h.requires_grad:
            h.accumulate(grad @ w_self.data.T)

    result._backward = backward
    return result


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate <= 0."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.data.shape) < keep) / keep
    return x * Tensor(mask)


def rowwise_sum(x: Tensor) -> Tensor:
    """Sum over the last axis, keeping a trailing singleton: (N, D) → (N, 1)."""
    out = Tensor(x.data.sum(axis=-1, keepdims=True), parents=(x,))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(np.broadcast_to(grad, x.data.shape).copy())

    out._backward = backward
    return out


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    out_data = np.concatenate([p.data for p in parts], axis=-1)
    out = Tensor(out_data, parents=tuple(parts))
    offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])

    def backward(grad: np.ndarray) -> None:
        for part, start, end in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                part.accumulate(grad[..., start:end])

    out._backward = backward
    return out


def bce_with_logits(
    logits: Tensor, targets: np.ndarray, sample_weights: Optional[np.ndarray] = None
) -> Tensor:
    """Numerically stable mean binary cross-entropy on logits.

    loss_i = max(z,0) - z·y + log(1 + exp(-|z|)); d loss / dz = σ(z) - y.
    """
    z = logits.data
    y = np.asarray(targets, dtype=np.float64)
    weights = (
        np.ones_like(y)
        if sample_weights is None
        else np.asarray(sample_weights, dtype=np.float64)
    )
    total_weight = max(float(weights.sum()), 1e-12)
    per_element = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    value = float((per_element * weights).sum() / total_weight)
    out = Tensor(value, parents=(logits,))

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            sigma = 1.0 / (1.0 + np.exp(-z))
            logits.accumulate(grad * weights * (sigma - y) / total_weight)

    out._backward = backward
    return out


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy; ``targets`` are class indices (N,)."""
    z = logits.data
    targets = np.asarray(targets, dtype=np.int64)
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = z.shape[0]
    losses = -np.log(np.maximum(probs[np.arange(n), targets], 1e-12))
    out = Tensor(float(losses.mean()), parents=(logits,))

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            dz = probs.copy()
            dz[np.arange(n), targets] -= 1.0
            logits.accumulate(grad * dz / n)

    out._backward = backward
    return out
