"""CT graph construction (§3.1, Figure 4, Table 7).

Vertices are per-thread basic blocks: every block a thread covered
sequentially (SCB) or can reach within one control-flow hop (URB) becomes
one vertex ``(thread, block_id)``. Edges carry one of six types:

====  =======================  ======================================
 id    name                     source
====  =======================  ======================================
 0     SCB control flow         dynamic flow edges of the STI's run
 1     URB control flow         static frontier edges into URBs
 2     intra-thread dataflow    write→read block pairs within a trace
 3     inter-thread dataflow    potential write/read overlap across threads
 4     scheduling hint          the CT's proposed yield points
 5     shortcut                 densification: k-apart SCB flow vertices
====  =======================  ======================================

The scheduling-hint encoding follows the paper exactly: an edge from the
block containing hint ``A.x`` to the first block of thread B, and an edge
from the block containing ``B.y`` back to the block containing ``A.x``.
Hint endpoints are additionally exposed as per-node ``hint_flags`` so the
model can embed them — the same information as the edges, in node form.

Exploring one CTI means scoring hundreds to thousands of schedules whose
graphs differ *only* in the scheduling edges; :class:`CTIGraphTemplate`
builds everything else once and stamps out per-schedule graphs cheaply,
which is what makes the §5.2.2 inference/execution cost asymmetry real in
this reproduction too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.cfg import KernelCFG
from repro.analysis.urb import find_urbs, urb_frontier
from repro.execution.concurrent import ScheduleHint
from repro.execution.trace import SequentialTrace
from repro.graphs.tokens import DEFAULT_MAX_TOKENS, Vocabulary, block_token_ids
from repro.kernel.code import Kernel

__all__ = [
    "CTGraph",
    "CTIGraphTemplate",
    "schedule_key",
    "build_ct_template",
    "build_ct_graph",
    "NODE_SCB",
    "NODE_URB",
    "NUM_NODE_TYPES",
    "EDGE_SCB_FLOW",
    "EDGE_URB_FLOW",
    "EDGE_INTRA_DATAFLOW",
    "EDGE_INTER_DATAFLOW",
    "EDGE_SCHEDULE",
    "EDGE_SHORTCUT",
    "NUM_EDGE_TYPES",
    "HINT_NONE",
    "HINT_SOURCE",
    "HINT_TARGET",
    "NUM_HINT_FLAGS",
]

NODE_SCB = 0
NODE_URB = 1
NUM_NODE_TYPES = 2

EDGE_SCB_FLOW = 0
EDGE_URB_FLOW = 1
EDGE_INTRA_DATAFLOW = 2
EDGE_INTER_DATAFLOW = 3
EDGE_SCHEDULE = 4
EDGE_SHORTCUT = 5
NUM_EDGE_TYPES = 6

HINT_NONE = 0
HINT_SOURCE = 1
HINT_TARGET = 2
NUM_HINT_FLAGS = 3

#: Distance (in SCB-flow hops) spanned by shortcut edges (§5.1.1).
DEFAULT_SHORTCUT_SPAN = 4


@dataclass
class CTGraph:
    """One concurrent-test graph, ready for the PIC model.

    Arrays are aligned by node index:

    - ``node_types``: SCB/URB per node
    - ``node_threads``: owning thread per node
    - ``node_blocks``: kernel block id per node
    - ``hint_flags``: HINT_* marker per node (scheduling-hint endpoints)
    - ``token_ids``: (num_nodes, max_tokens) encoder input
    - ``edges``: (num_edges, 3) rows of ``(src, dst, edge_type)``

    Graphs stamped from the same :class:`CTIGraphTemplate` share the
    ``token_ids`` array object, which the PIC model uses as an encoder
    cache key at inference time. Beyond its template a graph differs
    only in ``hint_flags`` and :attr:`schedule_rows` — see
    :func:`schedule_key`.
    """

    kernel_version: str
    cti_key: Tuple[int, ...]
    hints: Tuple[ScheduleHint, ...]
    node_types: np.ndarray
    node_threads: np.ndarray
    node_blocks: np.ndarray
    hint_flags: np.ndarray
    token_ids: np.ndarray
    edges: np.ndarray
    node_index: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: Shared per-template cache of prepared (sparse) base adjacency; the
    #: GNN memoises schedule-independent work here across instantiations.
    base_cache: Optional[Dict] = None
    #: The ``EDGE_SCHEDULE`` rows of ``edges``: ``stamp`` keeps them as a
    #: view of the tail of ``edges``; any other graph derives them on
    #: first use. Not an ``__init__`` argument, so ``dataclasses.replace``
    #: with new ``edges`` never carries stale rows over.
    _schedule_rows: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_nodes(self) -> int:
        return int(self.node_types.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def schedule_rows(self) -> np.ndarray:
        """The scheduling-hint rows of ``edges``, ``(k, 3)``."""
        rows = self._schedule_rows
        if rows is None:
            rows = self._schedule_rows = self.edges[
                self.edges[:, 2] == EDGE_SCHEDULE
            ]
        return rows

    def urb_mask(self) -> np.ndarray:
        return self.node_types == NODE_URB

    def scb_mask(self) -> np.ndarray:
        return self.node_types == NODE_SCB

    def nodes_of_block(self, block_id: int) -> List[int]:
        return [
            index
            for (thread, blk), index in self.node_index.items()
            if blk == block_id
        ]

    def edge_count_by_type(self) -> Dict[int, int]:
        counts: Dict[int, int] = {t: 0 for t in range(NUM_EDGE_TYPES)}
        for edge_type in self.edges[:, 2]:
            counts[int(edge_type)] += 1
        return counts


@dataclass
class CTIGraphTemplate:
    """Everything about a CTI's graph that does not depend on hints."""

    kernel_version: str
    cti_key: Tuple[int, ...]
    node_types: np.ndarray
    node_threads: np.ndarray
    node_blocks: np.ndarray
    token_ids: np.ndarray
    #: Edges of every type except EDGE_SCHEDULE.
    base_edges: np.ndarray
    node_index: Dict[Tuple[int, int], int]
    #: First covered block per thread (hint-edge resume targets).
    first_blocks: Tuple[Optional[int], ...]
    #: Lazily filled by the GNN with prepared base adjacency.
    sparse_cache: Dict = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return int(self.node_types.shape[0])

    def instantiate(self, kernel: Kernel, hints: Sequence[ScheduleHint]) -> CTGraph:
        """Stamp a per-schedule graph: base edges + this CT's hint edges."""
        schedule_rows, hint_flags = self._schedule_parts(kernel, hints)
        return self.stamp(hints, schedule_rows, hint_flags)

    def stamp(
        self,
        hints: Sequence[ScheduleHint],
        schedule_rows: Sequence[Tuple[int, int, int]],
        hint_flags: np.ndarray,
    ) -> CTGraph:
        """A graph of this template from already-derived schedule parts
        (the serve wire ships exactly these per candidate)."""
        if len(schedule_rows):
            edges = np.vstack(
                [self.base_edges, np.asarray(schedule_rows, dtype=np.int64)]
            )
        else:
            edges = self.base_edges
        graph = CTGraph(
            kernel_version=self.kernel_version,
            cti_key=self.cti_key,
            hints=tuple(hints),
            node_types=self.node_types,
            node_threads=self.node_threads,
            node_blocks=self.node_blocks,
            hint_flags=hint_flags,
            token_ids=self.token_ids,
            edges=edges,
            node_index=self.node_index,
            base_cache=self.sparse_cache,
        )
        graph._schedule_rows = edges[len(self.base_edges) :]
        return graph

    def _schedule_parts(
        self, kernel: Kernel, hints: Sequence[ScheduleHint]
    ) -> Tuple[List[Tuple[int, int, int]], np.ndarray]:
        """Scheduling-hint edges and node flags (§3.1 encoding).

        For hints ``A.x`` then ``B.y``: edge(block(A.x) → first block of B)
        and edge(block(B.y) → block(A.x)). Generalised to any alternating
        hint sequence: each hint's block points at the next thread's resume
        block (its first block for a fresh thread, the previous hint's
        block otherwise).
        """
        hint_flags = np.zeros(self.num_nodes, dtype=np.int64)
        rows: List[Tuple[int, int, int]] = []
        previous_hint_key: Optional[Tuple[int, int]] = None
        for hint in hints:
            block_id = kernel.block_of_instruction(hint.iid)
            src_key = (hint.thread, block_id)
            src_index = self.node_index.get(src_key)
            if src_index is None:
                continue  # hint inside a block the trace never reached
            hint_flags[src_index] = HINT_SOURCE
            # The next thread in the scheduler's round-robin order (the
            # other thread, in the two-thread configuration).
            target_thread = (hint.thread + 1) % len(self.first_blocks)
            if (
                previous_hint_key is not None
                and previous_hint_key[0] == target_thread
            ):
                dst_key = previous_hint_key
            else:
                first = self.first_blocks[target_thread]
                if first is None:
                    previous_hint_key = src_key
                    continue
                dst_key = (target_thread, first)
            dst_index = self.node_index.get(dst_key)
            if dst_index is not None:
                rows.append((src_index, dst_index, EDGE_SCHEDULE))
                if hint_flags[dst_index] == HINT_NONE:
                    hint_flags[dst_index] = HINT_TARGET
            previous_hint_key = src_key
        return rows, hint_flags


def schedule_key(graph: CTGraph) -> bytes:
    """Everything the model reads from ``graph`` beyond its template.

    The §3.1 encoding maps each hint to the *block* containing it, so
    hint tuples that differ only in which instruction of a block they
    name stamp the same ``hint_flags`` and schedule rows, and the model
    cannot tell the graphs apart. Two graphs of one template predict
    identically iff their keys are equal: the scoring memo and the serve
    digest key on it, and the wire ships exactly these two arrays (the
    flag array has the template's fixed length, so the concatenation is
    unambiguous).
    """
    return graph.hint_flags.tobytes() + graph.schedule_rows.tobytes()


def build_ct_template(
    kernel: Kernel,
    cfg: KernelCFG,
    *args,
    urb_hops: int = 1,
    shortcut_span: int = DEFAULT_SHORTCUT_SPAN,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    token_cache: Optional[Dict[int, np.ndarray]] = None,
) -> CTIGraphTemplate:
    """Build the hint-independent part of a CTI's graph.

    Positional arguments after ``cfg`` are one :class:`SequentialTrace`
    per thread followed by the :class:`Vocabulary` — the historical
    two-thread call ``build_ct_template(kernel, cfg, trace_a, trace_b,
    vocabulary)`` is the N=2 case. ``token_cache`` keeps block token ids
    across templates of one kernel, vocabulary and ``max_tokens``.
    """
    *trace_args, vocabulary = args
    traces = tuple(trace_args)
    if not traces:
        raise ValueError("build_ct_template needs at least one trace")

    # -- vertices ----------------------------------------------------------
    node_index: Dict[Tuple[int, int], int] = {}
    node_types: List[int] = []
    node_threads: List[int] = []
    node_blocks: List[int] = []

    def add_node(thread: int, block_id: int, node_type: int) -> int:
        key = (thread, block_id)
        existing = node_index.get(key)
        if existing is not None:
            return existing
        index = len(node_types)
        node_index[key] = index
        node_types.append(node_type)
        node_threads.append(thread)
        node_blocks.append(block_id)
        return index

    for thread, trace in enumerate(traces):
        for block_id in trace.block_sequence:
            add_node(thread, block_id, NODE_SCB)
        for block_id in sorted(find_urbs(cfg, trace.covered_blocks, hops=urb_hops)):
            add_node(thread, block_id, NODE_URB)

    # -- edges -------------------------------------------------------------
    edge_rows: List[Tuple[int, int, int]] = []
    edge_seen: Set[Tuple[int, int, int]] = set()

    def add_edge(src: int, dst: int, edge_type: int) -> None:
        row = (src, dst, edge_type)
        if row not in edge_seen:
            edge_seen.add(row)
            edge_rows.append(row)

    for thread, trace in enumerate(traces):
        # SCB control flow: the dynamic path, deduplicated.
        for src_block, dst_block in trace.flow_edges:
            add_edge(
                node_index[(thread, src_block)],
                node_index[(thread, dst_block)],
                EDGE_SCB_FLOW,
            )
        # URB control flow: static frontier into this thread's URBs.
        for src_block, dst_block in urb_frontier(
            cfg, trace.covered_blocks, hops=urb_hops
        ):
            src_key = (thread, src_block)
            dst_key = (thread, dst_block)
            if src_key in node_index and dst_key in node_index:
                add_edge(node_index[src_key], node_index[dst_key], EDGE_URB_FLOW)
        # Intra-thread dataflow.
        for src_block, dst_block in trace.dataflow_edges():
            src_key = (thread, src_block)
            dst_key = (thread, dst_block)
            if src_key in node_index and dst_key in node_index:
                add_edge(
                    node_index[src_key], node_index[dst_key], EDGE_INTRA_DATAFLOW
                )

    _add_inter_thread_dataflow(traces, node_index, add_edge)
    _add_shortcut_edges(traces, node_index, add_edge, shortcut_span)

    # -- features -----------------------------------------------------------
    token_matrix = np.zeros((len(node_blocks), max_tokens), dtype=np.int64)
    token_cache = {} if token_cache is None else token_cache
    for index, block_id in enumerate(node_blocks):
        cached = token_cache.get(block_id)
        if cached is None:
            cached = block_token_ids(vocabulary, kernel.blocks[block_id], max_tokens)
            token_cache[block_id] = cached
        token_matrix[index] = cached

    base_edges = (
        np.asarray(edge_rows, dtype=np.int64)
        if edge_rows
        else np.zeros((0, 3), dtype=np.int64)
    )
    return CTIGraphTemplate(
        kernel_version=kernel.version,
        cti_key=tuple(trace.sti_id for trace in traces),
        node_types=np.asarray(node_types, dtype=np.int64),
        node_threads=np.asarray(node_threads, dtype=np.int64),
        node_blocks=np.asarray(node_blocks, dtype=np.int64),
        token_ids=token_matrix,
        base_edges=base_edges,
        node_index=node_index,
        first_blocks=tuple(
            trace.block_sequence[0] if trace.block_sequence else None
            for trace in traces
        ),
    )


def build_ct_graph(
    kernel: Kernel,
    cfg: KernelCFG,
    *args,
    urb_hops: int = 1,
    shortcut_span: int = DEFAULT_SHORTCUT_SPAN,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> CTGraph:
    """One-shot CT graph assembly (template + instantiate).

    Positional arguments after ``cfg`` are one trace per thread, then the
    hints sequence, then the :class:`Vocabulary` (matching the historical
    two-thread signature at N=2).
    """
    *trace_args, hints, vocabulary = args
    template = build_ct_template(
        kernel,
        cfg,
        *trace_args,
        vocabulary,
        urb_hops=urb_hops,
        shortcut_span=shortcut_span,
        max_tokens=max_tokens,
    )
    return template.instantiate(kernel, hints)


def _add_inter_thread_dataflow(traces, node_index, add_edge) -> None:
    """Potential inter-thread dataflow: writes in one thread paired with
    reads of an overlapping address in another (§3.1, edge type 4).

    Ordered writer/reader pairs are visited writer-major, so the
    two-thread order ``(0, 1), (1, 0)`` — and hence edge-row order — is
    unchanged."""
    num_threads = len(traces)
    for writer_thread in range(num_threads):
        writes: Dict[int, Set[int]] = {}
        for access in traces[writer_thread].accesses:
            if access.is_write:
                writes.setdefault(access.address, set()).add(access.block_id)
        for reader_thread in range(num_threads):
            if reader_thread == writer_thread:
                continue
            for access in traces[reader_thread].accesses:
                if access.is_write:
                    continue
                for writer_block in writes.get(access.address, ()):
                    src_key = (writer_thread, writer_block)
                    dst_key = (reader_thread, access.block_id)
                    if src_key in node_index and dst_key in node_index:
                        add_edge(
                            node_index[src_key],
                            node_index[dst_key],
                            EDGE_INTER_DATAFLOW,
                        )


def _add_shortcut_edges(traces, node_index, add_edge, span: int) -> None:
    """Shortcut densification: connect SCB-path vertices ``span`` apart."""
    if span <= 1:
        return
    for thread, trace in enumerate(traces):
        sequence = trace.block_sequence
        for i in range(len(sequence) - span):
            src_key = (thread, sequence[i])
            dst_key = (thread, sequence[i + span])
            add_edge(node_index[src_key], node_index[dst_key], EDGE_SHORTCUT)
