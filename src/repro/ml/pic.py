"""The per-interleaving coverage (PIC) model (§3.2).

Combines the assembly encoder, a node-type embedding, the relational GCN,
and a per-node binary classification head. The model predicts, for every
vertex of a CT graph (SCBs and URBs of both threads), the probability the
block is covered when the CT is dynamically executed under its scheduling
hints.

Training minimises binary cross-entropy per graph (the paper computes BCE
within each graph first, then averages across the population). Because URB
positives are ~1% of nodes, the loss supports a positive-class weight and a
URB-node weight so the interesting minority is not drowned out.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import rng as rngmod
from repro.errors import CheckpointError, ModelError
from repro.graphs.ctgraph import (
    CTGraph,
    NODE_URB,
    NUM_EDGE_TYPES,
    NUM_HINT_FLAGS,
    NUM_NODE_TYPES,
)
from repro.graphs.dataset import CTExample
from repro.ml.autograd import (
    Parameter,
    Tensor,
    bce_with_logits,
    dropout,
    gather_rows,
    matmul,
    rowwise_sum,
)
from repro.ml.batching import node_offsets
from repro.ml.encoder import AsmEncoder, EncoderConfig
from repro.ml.gnn import GNNConfig, RelationalGCN

__all__ = ["PICConfig", "PICModel", "stable_sigmoid", "CHECKPOINT_SCHEMA"]

#: On-disk model checkpoint schema. Version 1 was a bare ``np.savez`` of
#: the state dict; version 2 adds a checksummed, versioned header with
#: the embedded :class:`PICConfig`, so a checkpoint is self-describing
#: and corruption is detected at load instead of producing NaNs later.
CHECKPOINT_SCHEMA = 2


def _checkpoint_checksum(state: Dict[str, np.ndarray], config_json: str) -> str:
    """Content checksum over the parameter arrays and embedded config.

    Covers name, dtype, shape, and raw bytes of every array (sorted by
    name), so any bit flip in the payload fails verification.
    """
    from repro.resilience.atomic import sha256_hex

    parts: List[bytes] = []
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        parts.append(name.encode("utf-8"))
        parts.append(str(array.dtype).encode("utf-8"))
        parts.append(repr(array.shape).encode("utf-8"))
        parts.append(array.tobytes())
    parts.append(config_json.encode("utf-8"))
    parts.append(str(CHECKPOINT_SCHEMA).encode("utf-8"))
    return sha256_hex(b"".join(parts))


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    The naive ``1/(1+exp(-z))`` overflows for large negative ``z`` (and
    ``exp(z)/(1+exp(z))`` for large positive ``z``); the split form stays
    finite over the whole float range. For ``z >= 0`` it computes exactly
    the naive expression, so well-conditioned predictions are unchanged.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


@dataclass(frozen=True)
class PICConfig:
    """Hyperparameters of one PIC model (the §5.1.2 tuning space)."""

    vocab_size: int
    pad_id: int
    token_dim: int = 32
    hidden_dim: int = 48
    num_layers: int = 4
    dropout: float = 0.1
    #: Loss weight multiplier for positive labels (class imbalance).
    positive_weight: float = 4.0
    #: Additional loss weight multiplier for URB nodes.
    urb_weight: float = 4.0
    bidirectional: bool = True
    #: Weight of the auxiliary inter-thread dataflow prediction loss
    #: (§6's proposed extra task); 0 disables the head during training.
    dataflow_weight: float = 0.0
    name: str = "PIC"


class PICModel:
    """Encoder + GNN + per-node classifier; the paper's coverage predictor."""

    def __init__(
        self,
        config: PICConfig,
        seed: int = 0,
        pretrained_encoder: Optional[AsmEncoder] = None,
    ) -> None:
        self.config = config
        self._rng = rngmod.split(seed, f"pic:{config.name}")
        if pretrained_encoder is not None:
            if pretrained_encoder.config.vocab_size != config.vocab_size:
                raise ModelError("pretrained encoder vocabulary size mismatch")
            if pretrained_encoder.config.output_dim != config.hidden_dim:
                raise ModelError(
                    "pretrained encoder output_dim must equal PIC hidden_dim"
                )
            self.encoder = pretrained_encoder
        else:
            self.encoder = AsmEncoder(
                EncoderConfig(
                    vocab_size=config.vocab_size,
                    token_dim=config.token_dim,
                    output_dim=config.hidden_dim,
                ),
                seed=rngmod.derive_seed(seed, "encoder"),
            )
        init_rng = rngmod.split(seed, "pic-init")
        scale = 1.0 / np.sqrt(config.hidden_dim)
        self.node_type_table = Parameter(
            init_rng.normal(0.0, scale, size=(NUM_NODE_TYPES, config.hidden_dim)),
            name="pic.node_type_table",
        )
        self.hint_flag_table = Parameter(
            init_rng.normal(0.0, scale, size=(NUM_HINT_FLAGS, config.hidden_dim)),
            name="pic.hint_flag_table",
        )
        self.gnn = RelationalGCN(
            GNNConfig(
                hidden_dim=config.hidden_dim,
                num_layers=config.num_layers,
                num_edge_types=NUM_EDGE_TYPES,
                bidirectional=config.bidirectional,
            ),
            seed=rngmod.derive_seed(seed, "gnn"),
        )
        self.w_out = Parameter(
            init_rng.normal(0.0, scale, size=(config.hidden_dim, 1)), name="pic.w_out"
        )
        self.b_out = Parameter(np.zeros(1), name="pic.b_out")
        # Bilinear head scoring inter-thread dataflow edges (§6 task).
        self.w_dataflow = Parameter(
            init_rng.normal(0.0, scale, size=(config.hidden_dim, config.hidden_dim)),
            name="pic.w_dataflow",
        )
        self.b_dataflow = Parameter(np.zeros(1), name="pic.b_dataflow")
        #: Classification threshold, tuned on validation URBs (§5.1.2).
        self.threshold: float = 0.5
        # The inference-time cache, keyed by the ``token_ids`` array every
        # graph of one CTI template shares: per inference dtype, the
        # template's node features (code + node-type + zero-hint-flag
        # embeddings) and its GNN ``TemplatePass`` with the ``base_cache``
        # it ran on; ~1.5 MB per dtype for a 186-node template, 32 entries
        # at most. Dropped, with the float32 casts, at the first inference
        # after parameters changed (``_params_dirty``).
        self._base_features_cache: Dict[int, tuple] = {}
        self._base_features_cap = 32
        self._params_dirty = False
        #: "float64" (default, exact) or "float32" (reduced precision):
        #: the dtype every gradient-free prediction runs in. Training and
        #: the autograd path always run float64.
        self.inference_mode: str = "float64"
        # Cast-once float32 copies of the head + hint tables; rebuilt only
        # after a parameter change.
        self._head32: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def set_inference_mode(self, mode: str) -> "PICModel":
        """Select the inference dtype: ``"float64"`` (exact, default) or
        ``"float32"`` (cast-once weights + plans; probabilities match
        float64 to ~1e-6 — see docs/PERFORMANCE.md for when that is
        safe). Returns ``self`` for chaining."""
        if mode not in ("float64", "float32"):
            raise ModelError(f"unknown inference mode {mode!r}")
        self.inference_mode = mode
        return self

    def _invalidate_casts(self) -> None:
        self._head32 = None
        self.gnn.invalidate_casts()

    def _head_views(self, dtype: np.dtype) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hint_flag_table, w_out, b_out) in ``dtype`` (cast once)."""
        if dtype != np.float32:
            return (
                self.hint_flag_table.data,
                self.w_out.data,
                self.b_out.data,
            )
        views = self._head32
        if views is None:
            views = (
                self.hint_flag_table.data.astype(np.float32),
                self.w_out.data.astype(np.float32),
                self.b_out.data.astype(np.float32),
            )
            self._head32 = views
        return views

    # -- parameters ------------------------------------------------------------

    def parameters(self) -> List[Parameter]:
        return (
            self.encoder.parameters()
            + [
                self.node_type_table,
                self.hint_flag_table,
                self.w_out,
                self.b_out,
                self.w_dataflow,
                self.b_dataflow,
            ]
            + self.gnn.parameters()
        )

    # -- forward ---------------------------------------------------------------

    def _hidden(self, graph: CTGraph, training: bool) -> Tensor:
        """Node representations after message passing (autograd path)."""
        if training:
            self._params_dirty = True
        code = self.encoder.encode(graph.token_ids, self.config.pad_id)
        types = gather_rows(self.node_type_table, graph.node_types)
        flags = gather_rows(self.hint_flag_table, graph.hint_flags)
        h = code + types + flags
        h = dropout(h, self.config.dropout, self._rng, training)
        return self.gnn.forward(h, graph)

    def logits(self, graph: CTGraph, training: bool = False) -> Tensor:
        """Per-node coverage logits for one CT graph."""
        hidden = self._hidden(graph, training)
        return matmul(hidden, self.w_out) + self.b_out  # (N, 1)

    def _dataflow_logits(
        self, hidden: Tensor, graph: CTGraph, edge_rows: np.ndarray
    ) -> Tensor:
        """Bilinear scores of inter-thread dataflow edges: (E, 1)."""
        src = graph.edges[edge_rows, 0]
        dst = graph.edges[edge_rows, 1]
        h_src = gather_rows(hidden, src)
        h_dst = gather_rows(hidden, dst)
        scores = rowwise_sum(matmul(h_src, self.w_dataflow) * h_dst)
        return scores + self.b_dataflow

    def predict_proba(self, graph: CTGraph) -> np.ndarray:
        """Coverage probabilities, shape (num_nodes,): a batch of one."""
        return self.predict_proba_batch([graph])[0]

    def predict(self, graph: CTGraph) -> np.ndarray:
        """Boolean coverage predictions under the tuned threshold."""
        return self.predict_proba(graph) >= self.threshold

    # -- batched inference -----------------------------------------------------

    def _template_entry(self, graph: CTGraph, dtype: type) -> tuple:
        """``graph``'s template's cache entry, ``dtype`` features present:
        ``(token_ids, {dtype: features}, {dtype: (base_cache, pass)})``.

        Code embeddings, node-type embeddings, and the zero hint-flag
        embedding are all identical across a CTI's candidate schedules, so
        the sum is cached per template (all its graphs share one
        ``token_ids`` array, so a whole candidate pool costs one encode);
        only the handful of hinted rows differ per candidate. The cache
        holds one variant per inference dtype — the float32 cast happens
        once per template, not per batch.

        Every gradient-free prediction starts here, so this is where
        stale caches are dropped: the check must precede the lookup, or
        a hit would serve data from before the last parameter update.
        """
        if self._params_dirty:
            self._base_features_cache.clear()
            self._invalidate_casts()
            self._params_dirty = False
        key = id(graph.token_ids)
        cached = self._base_features_cache.get(key)
        # Holding a reference to the keyed array prevents id() reuse.
        if cached is None or cached[0] is not graph.token_ids:
            base = (
                self.encoder.encode(graph.token_ids, self.config.pad_id).data
                + self.node_type_table.data[graph.node_types]
                + self.hint_flag_table.data[0]
            )
            if len(self._base_features_cache) >= self._base_features_cap:
                oldest = next(iter(self._base_features_cache))
                # pop(): concurrent server worker threads may race on
                # eviction; losing the race must not raise.
                self._base_features_cache.pop(oldest, None)
            cached = (graph.token_ids, {np.float64: base}, {})
            self._base_features_cache[key] = cached
        variants = cached[1]
        if dtype not in variants:
            variants[dtype] = variants[np.float64].astype(dtype)
        return cached

    def _template_pass(self, run: Sequence[CTGraph]):
        """``run``'s template pass, built once per template, parameters and
        dtype; ``None`` for a graph without a template and for a run of one
        whose template has none yet (one graph is cheaper in full)."""
        graph = run[0]
        dtype = np.float32 if self.inference_mode == "float32" else np.float64
        features, passes = self._template_entry(graph, dtype)[1:]
        cached = passes.get(dtype, (None, None))
        if cached[0] is not graph.base_cache and len(run) > 1:
            # A concurrent double-build stores an identical pass.
            recorded = self.gnn.template_pass(features[dtype], graph)
            cached = passes[dtype] = (graph.base_cache, recorded)
        return cached[1] if cached[0] is graph.base_cache else None

    def _hidden_numpy_batch(
        self, graphs: Sequence[CTGraph]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient-free node representations of a batch, stacked in
        order, and the graphs' row offsets into them.

        Every graph's input rows are its template's cached base features
        (:meth:`_template_entry`) with just the hinted rows patched, in
        the ``inference_mode`` dtype; the GNN then runs each run of
        same-template graphs through one compressed layer loop (a delta
        against the template's :meth:`_template_pass`, if any). This is
        the only gradient-free forward pass — single graphs, candidate
        pools and server batches mixing several CTIs all come through
        here, so a graph's result does not depend on its batch.
        """
        dtype = np.float32 if self.inference_mode == "float32" else np.float64
        offsets = node_offsets(graphs)
        h = np.empty((offsets[-1], self.config.hidden_dim), dtype=dtype)
        for graph, offset in zip(graphs, offsets):
            rows = h[offset : offset + graph.num_nodes]
            rows[:] = self._template_entry(graph, dtype)[1][dtype]
            hinted = np.flatnonzero(graph.hint_flags)
            if len(hinted):
                # Read after _template_entry, which drops stale casts.
                flags = self._head_views(dtype)[0]
                rows[hinted] += flags[graph.hint_flags[hinted]] - flags[0]
        return self.gnn.forward_numpy_batch(h, graphs, self._template_pass), offsets

    def predict_proba_batch(self, graphs: Sequence[CTGraph]) -> List[np.ndarray]:
        """Coverage probabilities of many graphs in one forward pass.

        Merges the candidates into one block-diagonal batch (PyTorch
        Geometric style), amortising the per-call Python/NumPy overhead
        across the pool, then splits the per-node probabilities back out
        per graph — this is the fast inference the paper's workflow
        depends on (many predictions per dynamic execution, §5.2.2).
        """
        if not graphs:
            return []
        h, offsets = self._hidden_numpy_batch(graphs)
        _, w_out, b_out = self._head_views(h.dtype)
        # One fixed-order dot product per node, not ``h @ w_out``: BLAS's
        # matrix-vector kernel rounds a row differently depending on where
        # it sits in the call, which would make a graph's probabilities
        # depend on its batch at the last bit.
        z = np.einsum("ij,j->i", h, w_out[:, 0]) + b_out[0]
        # stable_sigmoid upcasts float32 logits, so probabilities are
        # float64 downstream regardless of inference mode.
        proba = stable_sigmoid(z)
        return [
            proba[offsets[i] : offsets[i + 1]] for i in range(len(graphs))
        ]

    def predict_batch(self, graphs: Sequence[CTGraph]) -> List[np.ndarray]:
        """Boolean coverage predictions of many graphs (tuned threshold)."""
        return [proba >= self.threshold for proba in self.predict_proba_batch(graphs)]

    def predict_dataflow_proba_batch(
        self,
        graphs: Sequence[CTGraph],
        edge_rows_per_graph: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        """Batched variant of :meth:`predict_dataflow_proba`.

        ``edge_rows_per_graph[i]`` indexes rows of ``graphs[i].edges``;
        returns one realisation-probability array per graph.
        """
        if not graphs:
            return []
        if len(graphs) != len(edge_rows_per_graph):
            raise ModelError("graphs and edge_rows_per_graph lengths differ")
        h, offsets = self._hidden_numpy_batch(graphs)
        results: List[np.ndarray] = []
        for graph, offset, edge_rows in zip(graphs, offsets, edge_rows_per_graph):
            edge_rows = np.asarray(edge_rows, dtype=np.int64)
            if edge_rows.size == 0:
                results.append(np.zeros(0))
                continue
            src = graph.edges[edge_rows, 0] + offset
            dst = graph.edges[edge_rows, 1] + offset
            scores = ((h[src] @ self.w_dataflow.data) * h[dst]).sum(axis=1)
            z = scores + self.b_dataflow.data[0]
            results.append(stable_sigmoid(z))
        return results

    # -- loss --------------------------------------------------------------------

    def _sample_weights(self, example: CTExample) -> np.ndarray:
        weights = np.ones(example.num_nodes)
        if self.config.positive_weight != 1.0:
            weights[example.labels > 0.5] *= self.config.positive_weight
        if self.config.urb_weight != 1.0:
            weights[example.graph.node_types == NODE_URB] *= self.config.urb_weight
        return weights

    def loss(self, example: CTExample, training: bool = True) -> Tensor:
        """Weighted BCE of one graph (per-graph loss, as in §3.2).

        With ``dataflow_weight > 0`` the §6 auxiliary task is added: BCE
        over the inter-thread dataflow edges' realised/not-realised labels,
        sharing the node representations.
        """
        hidden = self._hidden(example.graph, training)
        logits = matmul(hidden, self.w_out) + self.b_out
        targets = example.labels[:, None]
        weights = self._sample_weights(example)[:, None]
        total = bce_with_logits(logits, targets, weights)
        if self.config.dataflow_weight > 0.0 and example.num_dataflow_edges:
            edge_logits = self._dataflow_logits(
                hidden, example.graph, example.dataflow_edge_rows
            )
            edge_loss = bce_with_logits(
                edge_logits, example.dataflow_labels[:, None]
            )
            total = total + edge_loss * self.config.dataflow_weight
        return total

    def predict_dataflow_proba(
        self, graph: CTGraph, edge_rows: np.ndarray
    ) -> np.ndarray:
        """Realisation probabilities of inter-thread dataflow edges: a
        batch of one."""
        return self.predict_dataflow_proba_batch([graph], [edge_rows])[0]

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {p.name: p.data.copy() for p in self.parameters()}
        state["__threshold__"] = np.asarray([self.threshold])
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for parameter in self.parameters():
            if parameter.name not in state:
                raise CheckpointError(f"missing parameter {parameter.name!r}")
            loaded = np.asarray(state[parameter.name])
            if loaded.shape != parameter.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {parameter.name!r}: "
                    f"{loaded.shape} vs {parameter.data.shape}"
                )
            parameter.data = loaded.astype(np.float64).copy()
        if "__threshold__" in state:
            self.threshold = float(np.asarray(state["__threshold__"]).ravel()[0])
        self._params_dirty = True

    def save(self, path: str) -> None:
        """Write a durable, self-describing checkpoint to ``path``.

        The archive embeds a schema version, a content checksum, and the
        model's :class:`PICConfig` (as JSON), and reaches disk via an
        atomic temp+fsync+rename — a crash mid-save leaves either the old
        checkpoint or the new one, never a torn file.
        """
        from repro.resilience.atomic import atomic_write_bytes, canonical_json

        state = self.state_dict()
        config_json = canonical_json(asdict(self.config))
        buffer = io.BytesIO()
        # savez through a buffer: writing to a file object keeps the exact
        # destination name (np.savez appends ``.npz`` to bare paths) and
        # lets the bytes go through the atomic-write helper.
        np.savez(
            buffer,
            __schema__=np.asarray([CHECKPOINT_SCHEMA]),
            __checksum__=np.asarray([_checkpoint_checksum(state, config_json)]),
            __config__=np.asarray([config_json]),
            **state,
        )
        atomic_write_bytes(path, buffer.getvalue())

    @staticmethod
    def _read_checkpoint(path: str) -> Tuple[Dict[str, np.ndarray], PICConfig]:
        """Read and verify a checkpoint; any unusable file is a
        :class:`~repro.errors.CheckpointError` (the signal consumers use
        to degrade gracefully instead of crashing)."""
        try:
            with np.load(path) as archive:
                payload = {key: archive[key] for key in archive.files}
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            raise CheckpointError(
                f"cannot read model checkpoint {path!r}: {error}"
            ) from None
        for key in ("__schema__", "__checksum__", "__config__"):
            if key not in payload:
                raise CheckpointError(
                    f"model checkpoint {path!r} lacks the {key} header "
                    "(not a Snowcat model checkpoint, or written by a "
                    "pre-versioning build)"
                )
        schema = int(np.asarray(payload.pop("__schema__")).ravel()[0])
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"model checkpoint {path!r} has schema {schema}, "
                f"this build reads schema {CHECKPOINT_SCHEMA}"
            )
        checksum = str(np.asarray(payload.pop("__checksum__")).ravel()[0])
        config_json = str(np.asarray(payload.pop("__config__")).ravel()[0])
        if _checkpoint_checksum(payload, config_json) != checksum:
            raise CheckpointError(
                f"model checkpoint {path!r} failed checksum verification "
                "(corrupt or truncated)"
            )
        try:
            config = PICConfig(**json.loads(config_json))
        except (ValueError, TypeError) as error:
            raise CheckpointError(
                f"model checkpoint {path!r} embeds an unreadable config: {error}"
            ) from None
        return payload, config

    @classmethod
    def load(cls, path: str, seed: int = 0) -> "PICModel":
        """Reconstruct a model purely from a checkpoint file.

        The embedded config makes the checkpoint self-describing: unlike
        :meth:`restore`, no externally supplied :class:`PICConfig` is
        needed (this is what ``repro campaign --model`` consumes).
        """
        state, config = cls._read_checkpoint(path)
        model = cls(config, seed=seed)
        model.load_state_dict(state)
        return model

    @staticmethod
    def restore(path: str, config: PICConfig, seed: int = 0) -> "PICModel":
        """Load a checkpoint into a model built from ``config``.

        ``config`` must agree with the checkpoint's embedded config on
        every architecture field (name may differ).
        """
        from dataclasses import replace as dc_replace

        state, saved_config = PICModel._read_checkpoint(path)
        if asdict(dc_replace(saved_config, name=config.name)) != asdict(config):
            raise CheckpointError(
                f"model checkpoint {path!r} was written with config "
                f"{saved_config}, incompatible with requested {config}"
            )
        model = PICModel(config, seed=seed)
        model.load_state_dict(state)
        return model

    def clone(self, name: Optional[str] = None, seed: int = 0) -> "PICModel":
        """Deep copy (used to fork fine-tuned variants from a base model)."""
        from dataclasses import replace as dc_replace

        config = dc_replace(self.config, name=name or self.config.name)
        twin = PICModel(config, seed=seed)
        twin.load_state_dict(self.state_dict())
        return twin
