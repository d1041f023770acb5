"""Labeled CT-graph dataset construction (§5.1.1).

The paper collects CTIs (random STI pairs), explores interleavings per CTI,
executes each CT dynamically, and labels every graph vertex with whether
the block was covered in the concurrent run. Splits are made *by CTI* —
train/validation/evaluation CTIs are disjoint, with more interleavings
generated for evaluation CTIs — which this module mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro import rng as rngmod
from repro.analysis.cfg import KernelCFG, build_kernel_cfg
from repro.errors import DatasetError
from repro.execution.concurrent import ScheduleHint, run_concurrent
from repro.execution.pct import propose_hint_pairs
from repro.execution.trace import ConcurrentResult
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.generator import StiGenerator
from repro.graphs.ctgraph import (
    EDGE_INTER_DATAFLOW,
    CTGraph,
    CTIGraphTemplate,
    build_ct_template,
)
from repro.graphs.tokens import Vocabulary, build_vocabulary
from repro.kernel.code import Kernel

__all__ = ["CTExample", "DatasetSplits", "GraphDatasetBuilder"]


@dataclass
class CTExample:
    """One training/evaluation example: a CT graph and its coverage labels.

    Besides the per-node coverage labels, examples carry per-edge labels
    for the *inter-thread dataflow* edges: whether the potential write→read
    communication was actually realised during the concurrent execution —
    the additional prediction task §6 proposes for speeding up race
    reproduction further.
    """

    graph: CTGraph
    labels: np.ndarray  # float {0,1} per node: covered concurrently
    #: Row indices into ``graph.edges`` of the inter-thread dataflow edges.
    dataflow_edge_rows: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    #: float {0,1} per dataflow edge: communication realised concurrently.
    dataflow_labels: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    #: Dynamic-execution byproducts kept for analysis (races, bugs).
    result: Optional[ConcurrentResult] = None

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def urb_labels(self) -> np.ndarray:
        return self.labels[self.graph.urb_mask()]

    def positive_fraction(self) -> float:
        if self.labels.size == 0:
            return 0.0
        return float(self.labels.mean())

    @property
    def num_dataflow_edges(self) -> int:
        return int(self.dataflow_edge_rows.shape[0])


@dataclass
class DatasetSplits:
    """CTI-disjoint train/validation/evaluation splits."""

    train: List[CTExample] = field(default_factory=list)
    validation: List[CTExample] = field(default_factory=list)
    evaluation: List[CTExample] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"train={len(self.train)} validation={len(self.validation)} "
            f"evaluation={len(self.evaluation)} graphs"
        )


def _label_dataflow_edges(
    graph: CTGraph, result: ConcurrentResult
) -> Tuple[np.ndarray, np.ndarray]:
    """Label inter-thread dataflow edges as realised/not realised.

    An edge (writer block of thread A → reader block of thread B) is
    realised when, in the concurrent trace, some read in B's block
    observed a value whose most recent writer was A executing the writer
    block.
    """
    if graph.num_edges == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    rows = np.flatnonzero(graph.edges[:, 2] == EDGE_INTER_DATAFLOW)
    if rows.size == 0:
        return rows.astype(np.int64), np.zeros(0, dtype=np.float64)

    # Realised communications from the serialized access stream.
    realized: set = set()
    last_writer: Dict[int, Tuple[int, int]] = {}  # addr -> (thread, block)
    for access in result.accesses:
        if access.is_write:
            last_writer[access.address] = (access.thread, access.block_id)
        else:
            writer = last_writer.get(access.address)
            if writer is not None and writer[0] != access.thread:
                realized.add(
                    (writer[0], writer[1], access.thread, access.block_id)
                )

    labels = np.zeros(rows.size, dtype=np.float64)
    for position, row in enumerate(rows):
        src, dst, _ = graph.edges[row]
        key = (
            int(graph.node_threads[src]),
            int(graph.node_blocks[src]),
            int(graph.node_threads[dst]),
            int(graph.node_blocks[dst]),
        )
        if key in realized:
            labels[position] = 1.0
    return rows.astype(np.int64), labels


class GraphDatasetBuilder:
    """End-to-end dataset pipeline for one kernel.

    Owns the fuzzing corpus, the whole-kernel CFG, and the vocabulary, and
    turns (CTI, hints) candidates into labeled :class:`CTExample` objects by
    actually executing them — the "graph dataset collection" stage (§4).
    """

    def __init__(
        self,
        kernel: Kernel,
        seed: int = 0,
        vocabulary: Optional[Vocabulary] = None,
        urb_hops: int = 1,
        shortcut_span: int = 4,
    ) -> None:
        self.kernel = kernel
        self.seed = seed
        self.cfg: KernelCFG = build_kernel_cfg(kernel)
        self.vocabulary = vocabulary or build_vocabulary(kernel)
        self.urb_hops = urb_hops
        self.shortcut_span = shortcut_span
        self.rng = rngmod.split(seed, f"dataset:{kernel.version}")
        self.generator = StiGenerator(kernel, seed=rngmod.derive_seed(seed, "fuzz"))
        self.corpus = Corpus(kernel)
        #: LRU-ish cache of CTI graph templates keyed by STI-id tuple.
        self._template_cache: Dict[Tuple[int, ...], CTIGraphTemplate] = {}
        self._template_cache_cap = 128
        #: Block token ids, shared by every template this builder builds.
        self._token_cache: Dict[int, np.ndarray] = {}

    # -- corpus ------------------------------------------------------------

    def grow_corpus(self, rounds: int, keep_all: bool = False) -> Corpus:
        """Fuzz for ``rounds`` iterations to populate the STI corpus."""
        with obs.span("corpus.grow", rounds=rounds) as span:
            self.corpus.grow(self.generator, rounds, keep_all=keep_all)
            span.set(size=len(self.corpus))
        obs.gauge("corpus.size", len(self.corpus))
        return self.corpus

    def require_corpus(self, minimum: int = 2) -> None:
        if len(self.corpus) < minimum:
            raise DatasetError(
                f"corpus has {len(self.corpus)} entries, need >= {minimum}; "
                f"call grow_corpus() first"
            )

    # -- single-example construction ------------------------------------------

    def template_for(self, *entries: CorpusEntry) -> CTIGraphTemplate:
        """Hint-independent graph template for one CTI, cached.

        Accepts one corpus entry per thread (two is the paper's
        configuration). Exploring one CTI scores many schedules; the
        template makes each additional schedule's graph construction
        O(#hints).
        """
        key = tuple(entry.sti.sti_id for entry in entries)
        template = self._template_cache.get(key)
        if template is None:
            template = build_ct_template(
                self.kernel,
                self.cfg,
                *(entry.trace for entry in entries),
                self.vocabulary,
                urb_hops=self.urb_hops,
                shortcut_span=self.shortcut_span,
                token_cache=self._token_cache,
            )
            if len(self._template_cache) >= self._template_cache_cap:
                oldest = next(iter(self._template_cache))
                del self._template_cache[oldest]
            self._template_cache[key] = template
        return template

    def graph_for(self, *args) -> CTGraph:
        """Graph for one (CTI, hints) candidate.

        Positional arguments are one corpus entry per thread followed by
        the hints sequence (the historical two-entry call is the N=2
        case).
        """
        *entries, hints = args
        return self.template_for(*entries).instantiate(self.kernel, hints)

    def label_ct(self, *args, keep_result: bool = True) -> CTExample:
        """Dynamically execute the CT and label its graph's vertices
        (coverage) and inter-thread dataflow edges (realised or not).

        Positional arguments are one corpus entry per thread followed by
        the hints sequence.
        """
        *entries, hints = args
        started = obs.tick()
        graph = self.graph_for(*entries, hints)
        result = run_concurrent(
            self.kernel,
            tuple(entry.sti.as_pairs() for entry in entries),
            hints=hints,
        )
        labels = np.zeros(graph.num_nodes, dtype=np.float64)
        for index in range(graph.num_nodes):
            thread = int(graph.node_threads[index])
            block_id = int(graph.node_blocks[index])
            if block_id in result.covered_blocks[thread]:
                labels[index] = 1.0
        dataflow_rows, dataflow_labels = _label_dataflow_edges(graph, result)
        obs.add("dataset.graphs_labeled")
        obs.tock("dataset.label_seconds", started)
        return CTExample(
            graph=graph,
            labels=labels,
            dataflow_edge_rows=dataflow_rows,
            dataflow_labels=dataflow_labels,
            result=result if keep_result else None,
        )

    # -- bulk construction ----------------------------------------------------

    def build_cti_pool(self, count: int) -> List[Tuple[CorpusEntry, CorpusEntry]]:
        """Random CTIs: pairs of distinct corpus entries."""
        self.require_corpus()
        return self.corpus.sample_pairs(self.rng, count)

    def examples_for_cti(
        self,
        cti: Tuple[CorpusEntry, CorpusEntry],
        interleavings: int,
        keep_results: bool = False,
    ) -> List[CTExample]:
        """Generate and label ``interleavings`` schedules for one CTI."""
        entry_a, entry_b = cti
        proposals = propose_hint_pairs(
            self.rng, entry_a.trace, entry_b.trace, interleavings
        )
        return [
            self.label_ct(entry_a, entry_b, list(pair), keep_result=keep_results)
            for pair in proposals
        ]

    def build_splits(
        self,
        num_ctis: int,
        train_fraction: float = 0.5,
        validation_fraction: float = 0.1,
        train_interleavings: int = 8,
        evaluation_interleavings: int = 16,
    ) -> DatasetSplits:
        """Construct CTI-disjoint splits, paper style (§5.1.1).

        Training/validation CTIs get ``train_interleavings`` schedules each;
        evaluation CTIs get the (larger) ``evaluation_interleavings``.
        """
        with obs.span("dataset.build_splits", num_ctis=num_ctis) as span:
            ctis = self.build_cti_pool(num_ctis)
            if not ctis:
                raise DatasetError("no CTIs could be formed; corpus too small")
            num_train = max(1, int(len(ctis) * train_fraction))
            num_validation = max(1, int(len(ctis) * validation_fraction))
            splits = DatasetSplits()
            for position, cti in enumerate(ctis):
                if position < num_train:
                    bucket, interleavings = splits.train, train_interleavings
                elif position < num_train + num_validation:
                    bucket, interleavings = splits.validation, train_interleavings
                else:
                    bucket, interleavings = splits.evaluation, evaluation_interleavings
                bucket.extend(self.examples_for_cti(cti, interleavings))
            span.set(
                train=len(splits.train),
                validation=len(splits.validation),
                evaluation=len(splits.evaluation),
            )
        return splits
