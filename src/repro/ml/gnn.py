"""Relational graph convolution over CT graphs.

The paper's GNN module is a GCN (PyTorch Geometric) whose edge-type
embeddings let message passing distinguish the five CT edge types. Here
each edge type gets its own weight matrix per layer (an R-GCN), which
subsumes edge-type embeddings, and messages flow in both edge directions
with separate weights — coverage of a block depends both on what reaches it
and on what it reaches.

Propagation uses normalised sparse adjacency matrices (1/in-degree per
type). For graphs stamped from one :class:`CTIGraphTemplate`, the base
(schedule-independent) adjacency is built once and shared via the graph's
``base_cache``; only the two scheduling-hint edges are prepared per
schedule. This is what lets one CTI's hundreds of candidate schedules be
scored at a small fraction of an execution's cost (§5.2.2).

There are two forward passes. :meth:`RelationalGCN.forward` is the
autograd one over :func:`prepare_adjacency`: training, and the
independent reference the tests hold inference to.
:meth:`RelationalGCN.forward_numpy_batch` is every gradient-free
prediction: the batch is cut into runs of consecutive same-template
graphs and each run goes through one compressed layer loop that reads
its template's one cached :class:`_BatchPlan` once per graph (a single
graph is a batch of one).
Given its template's schedule-free :class:`TemplatePass` (the PIC
caches one per template), a run is a delta against it: a candidate
differs from its template only at its hinted nodes and schedule edges,
so each layer recomputes just the rows those reach, in the same
operations and order as the full loop — the same bits.

Deeper stacks see farther in the graph; the paper observes deeper GNNs
predict concurrent coverage better (§5.1.2), which ``num_layers`` exposes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

# scipy's C kernel directly: lets the hot loop reuse one output buffer
from scipy.sparse import _sparsetools

from repro import rng as rngmod
from repro.graphs.ctgraph import CTGraph, EDGE_SCHEDULE, NUM_EDGE_TYPES
from repro.ml.autograd import Parameter, Tensor, relational_layer

__all__ = ["GNNConfig", "RelationalGCN", "prepare_adjacency"]


@dataclass(frozen=True)
class GNNConfig:
    """Shape of the GNN stack."""

    hidden_dim: int = 48
    num_layers: int = 4
    num_edge_types: int = NUM_EDGE_TYPES
    bidirectional: bool = True


def _freeze_csr(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Mark a CSR matrix's backing arrays read-only.

    Everything published into a template's shared ``base_cache`` may be
    read by several threads at once; freezing at publish time turns
    any accidental in-place mutation into an immediate ``ValueError``
    instead of silent cross-thread corruption.
    """
    matrix.data.setflags(write=False)
    matrix.indices.setflags(write=False)
    matrix.indptr.setflags(write=False)
    return matrix


def _freeze_pair(
    pair: Tuple[sp.csr_matrix, sp.csr_matrix]
) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    _freeze_csr(pair[0])
    _freeze_csr(pair[1])
    return pair


def _normalized_pair(
    src: np.ndarray, dst: np.ndarray, num_nodes: int
) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """(forward, reverse) adjacency with 1/in-degree normalisation.

    forward[d, s] = 1/in_deg(d) for each edge s→d; reverse likewise on the
    transposed edge set.
    """
    in_degree = np.bincount(dst, minlength=num_nodes).astype(np.float64)
    out_degree = np.bincount(src, minlength=num_nodes).astype(np.float64)
    forward = sp.csr_matrix(
        (1.0 / np.maximum(in_degree[dst], 1.0), (dst, src)),
        shape=(num_nodes, num_nodes),
    )
    reverse = sp.csr_matrix(
        (1.0 / np.maximum(out_degree[src], 1.0), (src, dst)),
        shape=(num_nodes, num_nodes),
    )
    return forward, reverse


def prepare_adjacency(
    graph: CTGraph,
) -> Dict[int, Tuple[sp.csr_matrix, sp.csr_matrix]]:
    """Per-edge-type normalised adjacency, with template-level caching.

    Non-schedule types are identical for every schedule of a CTI, so they
    live in the template-shared ``base_cache``; the schedule type is built
    per graph (it is at most a handful of edges).
    """
    cached = getattr(graph, "_adjacency", None)
    if cached is not None:
        return cached
    n = graph.num_nodes
    result: Dict[int, Tuple[sp.csr_matrix, sp.csr_matrix]] = {}
    base_cache = graph.base_cache if graph.base_cache is not None else {}
    types_present = np.unique(graph.edges[:, 2]) if graph.num_edges else []
    for edge_type in types_present:
        edge_type = int(edge_type)
        if edge_type != EDGE_SCHEDULE and edge_type in base_cache:
            result[edge_type] = base_cache[edge_type]
            continue
        rows = graph.edges[graph.edges[:, 2] == edge_type]
        pair = _normalized_pair(
            rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64), n
        )
        result[edge_type] = pair
        if edge_type != EDGE_SCHEDULE:
            base_cache[edge_type] = _freeze_pair(pair)
    graph._adjacency = result  # per-graph memo
    return result


def _compressed_columns(
    matrix: sp.csr_matrix,
) -> Tuple[np.ndarray, sp.csr_matrix]:
    """(nonzero column indices, matrix restricted to those columns).

    ``A @ (h @ W)`` only reads ``h @ W`` at columns where ``A`` is
    nonzero, so the per-type weight GEMM can run on just those rows of
    ``h`` — in CT graphs most nodes lack edges of any given type, which
    removes over half of the batched GEMM work exactly. Keeping the full
    row dimension lets the sparse propagation accumulate directly into
    the layer output buffer.
    """
    cols = np.unique(matrix.indices)
    remap = np.empty(matrix.shape[1], np.int32)
    remap[cols] = np.arange(len(cols), dtype=np.int32)
    compressed = sp.csr_matrix(
        (matrix.data, remap[matrix.indices], matrix.indptr),
        shape=(matrix.shape[0], len(cols)),
    )
    return cols, compressed


@dataclass
class _BatchPlan:
    """Template-cached compressed base adjacency of one graph.

    All schedules of one CTI share their base edges, so one plan serves
    every run of the template's graphs: row ``j·n + i`` of a run is plan
    row ``i`` with its columns read for graph ``j``. It is built once per
    template from :func:`prepare_adjacency`'s base pairs and cached in
    the template's ``base_cache``; only each run's scheduling-hint edges
    are merged per call. Each (edge_type, direction) term keeps only its
    nonzero *columns* (the nodes that send messages of that type), so the
    per-type weight GEMM runs on just those rows of ``h``; the terms'
    column-compressed matrices are stacked side by side into one
    ``matrix`` whose single sparse product accumulates every term
    straight into the layer output. ``cols`` concatenates the terms'
    column supports (one gather per layer) and ``slices`` delimits each
    term's segment.

    Plans live in a *shared* template cache and are therefore immutable
    on publish (arrays frozen read-only); the mutable layer buffers the
    loop writes into are per-thread (:func:`_layer_buffers`), so several
    threads can score the same template concurrently while
    steady-state scoring on any one thread still allocates almost
    nothing.
    """

    terms: List[Tuple[int, int]]
    cols: np.ndarray
    slices: np.ndarray
    matrix: sp.csr_matrix
    #: Lazily built float32 view of ``matrix`` (shared indices/indptr,
    #: cast data), for ``inference_mode="float32"``. Built at most once
    #: per plan; a concurrent double-build is idempotent.
    matrix32: Optional[sp.csr_matrix] = None

    def freeze(self) -> "_BatchPlan":
        self.cols.setflags(write=False)
        self.slices.setflags(write=False)
        _freeze_csr(self.matrix)
        return self

    def matrix_for(self, dtype: np.dtype) -> sp.csr_matrix:
        """The plan matrix with CSR data in ``dtype``.

        ``csr_matvecs`` is dtype-templated — data, input and output must
        agree — so the float32 path needs float32 matrix data. The cast
        happens once per plan (plans are template-cached), not per call.
        """
        if dtype != np.float32:
            return self.matrix
        cast = self.matrix32
        if cast is None:
            cast = sp.csr_matrix(
                (
                    self.matrix.data.astype(np.float32),
                    self.matrix.indices,
                    self.matrix.indptr,
                ),
                shape=self.matrix.shape,
            )
            self.matrix32 = _freeze_csr(cast)
        return cast


#: Per-thread reusable (out, scratch) layer buffers, keyed by shape; a
#: small FIFO cap bounds memory when many batch shapes are in play.
_LAYER_BUFFERS = threading.local()
_LAYER_BUFFER_CAP = 16


def _layer_buffers(
    n_total: int, n_cols: int, width: int, dtype: np.dtype = np.float64
) -> Tuple[np.ndarray, np.ndarray]:
    store = getattr(_LAYER_BUFFERS, "store", None)
    if store is None:
        store = _LAYER_BUFFERS.store = {}
    key = (n_total, n_cols, width, np.dtype(dtype).name)
    buffers = store.get(key)
    if buffers is None:
        if len(store) >= _LAYER_BUFFER_CAP:
            del store[next(iter(store))]
        buffers = (
            np.empty((n_total, width), dtype=dtype),
            np.empty((n_cols, width), dtype=dtype),
        )
        store[key] = buffers
    return buffers


def _dot(a: np.ndarray, w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.dot(a, w, out=out)``, with a lone row computed as a two-row
    GEMM: NumPy sends one row to BLAS's matrix-vector kernel, which rounds
    differently, and a row's bits must not depend on its company."""
    if len(a) != 1:
        return np.dot(a, w, out=out)
    if out is None:
        out = np.empty((1, w.shape[1]), dtype=a.dtype)
    out[:] = np.dot(np.concatenate((a, a)), w)[:1]
    return out


class TemplatePass(NamedTuple):
    """A template's layer loop without hints or schedule edges: per layer
    ``h @ W_self`` before the bias and the run-of-one plan's term
    products, then the output. Read-only: every thread shares it."""

    selfs: List[np.ndarray]
    products: List[np.ndarray]
    output: np.ndarray


def _template_runs(graphs: Sequence[CTGraph]) -> Iterator[Sequence[CTGraph]]:
    """Maximal runs of consecutive graphs that share one template.

    Same template means the same ``base_cache`` object and node count; a
    graph without a template (``base_cache is None``) is a run of one.
    """
    start = 0
    while start < len(graphs):
        first = graphs[start]
        stop = start + 1
        if first.base_cache is not None:
            while (
                stop < len(graphs)
                and graphs[stop].base_cache is first.base_cache
                and graphs[stop].num_nodes == first.num_nodes
            ):
                stop += 1
        yield graphs[start:stop]
        start = stop


class RelationalGCN:
    """A stack of relational graph-convolution layers."""

    def __init__(self, config: GNNConfig, seed: int = 0) -> None:
        self.config = config
        rng = rngmod.split(seed, "gnn-init")
        d = config.hidden_dim
        scale = 1.0 / np.sqrt(d)
        directions = 2 if config.bidirectional else 1
        self.w_self: List[Parameter] = []
        self.bias: List[Parameter] = []
        #: [layer][edge_type][direction] weight matrices
        self.w_edge: List[List[List[Parameter]]] = []
        for layer in range(config.num_layers):
            self.w_self.append(
                Parameter(rng.normal(0.0, scale, size=(d, d)), name=f"gnn.{layer}.self")
            )
            self.bias.append(Parameter(np.zeros(d), name=f"gnn.{layer}.bias"))
            per_type: List[List[Parameter]] = []
            for edge_type in range(config.num_edge_types):
                per_direction = [
                    Parameter(
                        rng.normal(0.0, scale, size=(d, d)),
                        name=f"gnn.{layer}.type{edge_type}.dir{direction}",
                    )
                    for direction in range(directions)
                ]
                per_type.append(per_direction)
            self.w_edge.append(per_type)
        # Cast-once float32 weight copies for inference_mode="float32";
        # built lazily, dropped whenever parameters change.
        self._cast32: Optional[Tuple[list, list, list]] = None

    def invalidate_casts(self) -> None:
        """Drop cached float32 weight copies (call after any parameter
        update — the PIC model hooks this into its dirty-flag path)."""
        self._cast32 = None

    def _weight_views(self, dtype: np.dtype) -> Tuple[list, list, list]:
        """(w_self, bias, w_edge) raw arrays in ``dtype``.

        float64 returns the live parameter arrays (no copies); float32
        returns cached casts, built once at first use after load/update
        rather than per forward pass.
        """
        if dtype != np.float32:
            return (
                [p.data for p in self.w_self],
                [p.data for p in self.bias],
                [
                    [[p.data for p in per_direction] for per_direction in per_type]
                    for per_type in self.w_edge
                ],
            )
        cast = self._cast32
        if cast is None:
            cast = (
                [p.data.astype(np.float32) for p in self.w_self],
                [p.data.astype(np.float32) for p in self.bias],
                [
                    [
                        [p.data.astype(np.float32) for p in per_direction]
                        for per_direction in per_type
                    ]
                    for per_type in self.w_edge
                ],
            )
            self._cast32 = cast
        return cast

    def parameters(self) -> List[Parameter]:
        flat: List[Parameter] = []
        flat.extend(self.w_self)
        flat.extend(self.bias)
        for per_type in self.w_edge:
            for per_direction in per_type:
                flat.extend(per_direction)
        return flat

    def forward(self, h: Tensor, graph: CTGraph) -> Tensor:
        """Run all layers; input and output are (num_nodes, hidden_dim).

        One :func:`~repro.ml.autograd.relational_layer` node per layer;
        terms in edge-type order, forward direction before reverse.
        """
        adjacency = prepare_adjacency(graph)
        directions = 2 if self.config.bidirectional else 1
        for layer in range(self.config.num_layers):
            terms = [
                (pair[direction], self.w_edge[layer][edge_type][direction])
                for edge_type, pair in adjacency.items()
                for direction in range(directions)
            ]
            h = relational_layer(h, self.w_self[layer], self.bias[layer], terms)
        return h

    def forward_numpy(self, h: np.ndarray, graph: CTGraph) -> np.ndarray:
        """Gradient-free inference on one graph: a batch of one.

        Unlike :meth:`forward_numpy_batch`, leaves ``h`` untouched.
        """
        return self.forward_numpy_batch(h.copy(), [graph])

    def forward_numpy_batch(
        self, h: np.ndarray, graphs: Sequence[CTGraph], pass_for=None
    ) -> np.ndarray:
        """Gradient-free inference over a disjoint union of graphs, in place.

        ``h`` is the concatenated node features of all graphs (same math
        as :meth:`forward`, in ``h.dtype``); it is overwritten with, and
        returned as, their output rows in input order. The batch is cut
        into maximal runs of consecutive graphs stamped from one template,
        and each run goes through the compressed layer loop on its own
        row slice. Message passing never crosses graphs, runs are never
        reordered or merged and no GEMM has a single row, so a graph's
        rows do not depend on what it was batched with, bit for bit.

        ``pass_for(run)`` may return the run's :class:`TemplatePass`,
        to score the run as a delta against it (the same bits); the caller
        vouches that ``h``'s rows outside hinted nodes are its input rows.
        """
        row = 0
        for run in _template_runs(graphs):
            rows = run[0].num_nodes * len(run)
            self._run_numpy_compressed(
                h[row : row + rows],
                self._batch_plan(run[0]),
                self._schedule_terms(run, h.dtype),
                pass_for(run) if pass_for else None,
                np.concatenate([graph.hint_flags for graph in run]) != 0,
            )
            row += rows
        return h

    def template_pass(self, base: np.ndarray, graph: CTGraph) -> TemplatePass:
        """The layer loop of ``graph``'s template on its base node
        features ``base`` (left untouched), recorded."""
        record = TemplatePass([], [], base.copy())
        plan = self._batch_plan(graph)
        self._run_numpy_compressed(record.output, plan, [], record=record)
        for array in (*record.selfs, *record.products, record.output):
            array.setflags(write=False)
        return record

    def _batch_plan(self, graph: CTGraph) -> _BatchPlan:
        """The graph's compressed plan, cached in its template if it has one."""
        base_cache = graph.base_cache
        if base_cache is None:
            return self._build_plan(graph)
        # Models of either direction setting may score one template.
        key = ("__plan__", graph.num_nodes, self.config.bidirectional)
        plan = base_cache.get(key)
        if plan is None:
            plan = base_cache[key] = self._build_plan(graph)
        return plan

    def _build_plan(self, graph: CTGraph) -> _BatchPlan:
        directions = 2 if self.config.bidirectional else 1
        terms: List[Tuple[int, int]] = []
        col_blocks: List[np.ndarray] = []
        matrices: List[sp.csr_matrix] = []
        for edge_type, pair in prepare_adjacency(graph).items():
            if edge_type == EDGE_SCHEDULE:
                continue
            for direction in range(directions):
                cols, compressed = _compressed_columns(pair[direction])
                terms.append((edge_type, direction))
                col_blocks.append(cols)
                matrices.append(compressed)
        cols = (
            np.concatenate(col_blocks)
            if col_blocks
            else np.empty(0, np.int64)
        )
        slices = np.cumsum([0] + [len(block) for block in col_blocks])
        matrix = (
            sp.hstack(matrices, format="csr")
            if matrices
            else sp.csr_matrix((graph.num_nodes, 0))
        )
        return _BatchPlan(terms, cols, slices, matrix).freeze()

    def _schedule_terms(
        self, graphs: Sequence[CTGraph], dtype: np.dtype
    ) -> List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Merged scheduling-hint edges of one run, in gather/scatter form.

        Each term is ``(direction, rows_out, rows_in, coeff)``: messages
        are gathered from ``rows_in``, scaled by the 1/in-degree ``coeff``
        (same normalisation as :func:`_normalized_pair`), pushed through
        the direction's weight and scatter-added into ``rows_out``. Hint
        edges are so few — a couple per candidate — that edge-list form
        beats building sparse matrices for every run.
        """
        n = graphs[0].num_nodes
        n_total = n * len(graphs)
        srcs: List[np.ndarray] = []
        dsts: List[np.ndarray] = []
        for j, graph in enumerate(graphs):
            rows = graph.schedule_rows
            if len(rows):
                srcs.append(rows[:, 0].astype(np.int64) + j * n)
                dsts.append(rows[:, 1].astype(np.int64) + j * n)
        if not srcs:
            return []
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        in_degree = np.bincount(dst, minlength=n_total).astype(np.float64)
        terms = [(0, dst, src, 1.0 / np.maximum(in_degree[dst], 1.0))]
        if self.config.bidirectional:
            out_degree = np.bincount(src, minlength=n_total).astype(np.float64)
            terms.append((1, src, dst, 1.0 / np.maximum(out_degree[src], 1.0)))
        return [
            (direction, rows_out, rows_in, coeff.astype(dtype, copy=False))
            for direction, rows_out, rows_in, coeff in terms
        ]

    def _run_numpy_compressed(
        self,
        h: np.ndarray,
        plan: _BatchPlan,
        schedule_terms: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]],
        recorded: Optional[TemplatePass] = None,
        hinted: Optional[np.ndarray] = None,
        record: Optional[TemplatePass] = None,
    ) -> None:
        """The gradient-free layer loop (same math as :meth:`forward`),
        overwriting ``h`` — one run's row slice — with its output.

        Each (edge type, direction) GEMM runs only on the nodes that send
        messages of that type; every column skipped multiplies an exact
        zero in the dense formulation, so results match autograd to
        floating-point accuracy. One sparse product accumulates every
        term into the layer output. A run of ``k`` graphs reads the one
        plan ``k`` times: run row ``j·n + i`` is plan row ``i``, and plan
        column ``c`` of graph ``j`` is run column ``c·k + j``, so each
        term's run columns are still one block.

        Given the run's ``recorded`` pass, it is a delta: the frontier
        (rows whose input may differ from the template's) starts at the
        ``hinted`` rows and schedule endpoints and grows by its receivers
        each layer; GEMMs run on its rows and plan columns only, and a
        row-restricted ``csr_matvecs`` reads the pass's products or the
        recomputed ones. Computed rows see the full loop's operations,
        order and inputs; the rest take the pass's output. Without a pass
        every row is frontier; ``record`` collects a template pass.

        The loop runs entirely in ``h.dtype``: float64 uses the live
        parameter arrays, float32 (``inference_mode="float32"``) uses
        cast-once weight copies, a cast-once plan matrix and float32
        scratch buffers — no per-call casting anywhere in the loop.
        """
        dtype = h.dtype
        matrix = plan.matrix_for(dtype)
        w_self, bias, w_edge = self._weight_views(dtype)
        width = h.shape[1]
        n, n_cols = matrix.shape
        k = len(h) // n
        n_template = 0 if recorded is None else len(recorded.products[0])
        out, x = _layer_buffers(len(h), n_template + n_cols * k, width, dtype)
        frontier = np.ones(len(h), bool) if recorded is None else hinted.copy()
        for _, rows_out, rows_in, _ in schedule_terms:
            frontier[rows_out] = frontier[rows_in] = True
        # The run's CSR arrays and gather sources, and every column reading
        # its template product until its graph recomputes it. Graph j's
        # rows start at j·nnz, so graph k's first start ends the run.
        graph_ids = np.arange(k + 1, dtype=matrix.indices.dtype)[:, None]
        run_indptr = (matrix.indptr[:-1] + matrix.nnz * graph_ids).ravel()[: len(h) + 1]
        run_indices = (matrix.indices * k + graph_ids[:k]).ravel()
        run_data = matrix.data[None].repeat(k, 0).ravel()
        cols = (plan.cols + n * graph_ids[:k]).T.ravel()
        colmap = np.repeat(np.arange(n_cols, dtype=graph_ids.dtype), k)
        for layer in range(self.config.num_layers):
            senders = frontier.nonzero()[0]
            sending = frontier[cols]
            spos = sending.nonzero()[0]
            frontier |= (plan.matrix @ sending.reshape(n_cols, k) > 0).T.ravel()
            rows = frontier.nonzero()[0]
            result = out[: len(rows)]
            if recorded is not None:
                result[:] = recorded.selfs[layer].take(rows % n, axis=0)
                x[:n_template] = recorded.products[layer]
            changed = _dot(h.take(senders, axis=0), w_self[layer])
            result[np.searchsorted(rows, senders)] = changed
            result += bias[layer]
            # note: h.take() beats np.take(..., out=) — numpy's buffered
            # out-path is several times slower than a fresh gather
            gather = h.take(cols[spos], axis=0)
            # A term's frontier columns are one slice of ``spos``.
            bounds = np.searchsorted(spos, plan.slices * k).tolist()
            recomputed = x[n_template:]
            for (edge_type, direction), a, b in zip(plan.terms, bounds, bounds[1:]):
                weight = w_edge[layer][edge_type][direction]
                _dot(gather[a:b], weight, recomputed[a:b])
            if record is not None:
                record.selfs.append(changed)
                record.products.append(x.copy())
            # The frontier only grows: this rewrites every earlier entry.
            colmap[spos] = n_template + np.arange(len(spos), dtype=colmap.dtype)
            # The run's rows ``rows``, each in stored order.
            picked = rows.astype(graph_ids.dtype)
            indptr = np.zeros(len(rows) + 1, dtype=picked.dtype)
            np.cumsum(run_indptr[picked + 1] - run_indptr[picked], out=indptr[1:])
            indices = np.empty(indptr[-1], dtype=picked.dtype)
            data = np.empty(indptr[-1], dtype=dtype)
            _sparsetools.csr_row_index(
                len(rows), picked, run_indptr, run_indices, run_data, indices, data
            )
            _sparsetools.csr_matvecs(
                len(rows),
                n_template + len(spos),
                width,
                indptr,
                colmap.take(indices),
                data,
                x.ravel(),
                result.ravel(),
            )
            for direction, rows_out, rows_in, coeff in schedule_terms:
                weight = w_edge[layer][EDGE_SCHEDULE][direction]
                contrib = _dot(h[rows_in] * coeff[:, None], weight)
                np.add.at(result, np.searchsorted(rows, rows_out), contrib)
            np.maximum(result, 0.0, out=result)
            h[rows] = result
        if recorded is not None:
            rest = ~frontier.reshape(k, -1, 1)
            np.copyto(h.reshape(k, -1, width), recorded.output, where=rest)
