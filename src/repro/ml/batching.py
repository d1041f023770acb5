"""Disjoint-union batches of CT graphs, and the training order.

PyTorch Geometric batches GNN inputs as disjoint unions of graphs — one
big block-diagonal adjacency, node features concatenated. Message passing
never crosses components, so a merged graph computes exactly the
per-graph results: :func:`merge_graphs` / :func:`merge_examples` build
one, :func:`node_offsets` splits per-node results back out.

Training does not merge. It takes one gradient step per graph
(:func:`iter_batches`), which is what keeps §3.2's per-graph BCE ("binary
cross entropy within each graph first") exact: a merged example's loss
would weight graphs by their node counts.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.graphs.ctgraph import CTGraph
from repro.graphs.dataset import CTExample

__all__ = ["merge_graphs", "merge_examples", "iter_batches", "node_offsets"]


def node_offsets(graphs: Sequence[CTGraph]) -> np.ndarray:
    """Cumulative node offsets of a batch: shape (len(graphs) + 1,)."""
    return np.cumsum([0] + [graph.num_nodes for graph in graphs])


def merge_graphs(graphs: Sequence[CTGraph]) -> Tuple[CTGraph, np.ndarray]:
    """Disjoint-union merge of bare CT graphs into one block-diagonal graph.

    Returns the merged graph and the node offsets (cumsum with leading 0)
    needed to split per-node results back out per component. Token
    matrices must share their width (they do when built by one
    vocabulary/builder).
    """
    if not graphs:
        raise DatasetError("cannot merge an empty batch")
    width = graphs[0].token_ids.shape[1]
    for graph in graphs:
        if graph.token_ids.shape[1] != width:
            raise DatasetError("token widths differ across batch members")

    offsets = node_offsets(graphs)
    edges: List[np.ndarray] = []
    for offset, graph in zip(offsets[:-1], graphs):
        if graph.num_edges:
            shifted = graph.edges.copy()
            shifted[:, 0] += offset
            shifted[:, 1] += offset
            edges.append(shifted)

    merged = CTGraph(
        kernel_version=graphs[0].kernel_version,
        cti_key=(-1, -1),
        hints=(),
        node_types=np.concatenate([g.node_types for g in graphs]),
        node_threads=np.concatenate([g.node_threads for g in graphs]),
        node_blocks=np.concatenate([g.node_blocks for g in graphs]),
        hint_flags=np.concatenate([g.hint_flags for g in graphs]),
        token_ids=np.vstack([g.token_ids for g in graphs]),
        edges=np.vstack(edges) if edges else np.zeros((0, 3), dtype=np.int64),
        node_index={},
        base_cache=None,
    )
    return merged, offsets


def merge_examples(examples: Sequence[CTExample]) -> CTExample:
    """Disjoint-union merge of CT examples into one batch example.

    The merged example carries concatenated labels and dataflow-edge
    labels, with edge indices shifted per component.
    """
    merged_graph, _ = merge_graphs([example.graph for example in examples])

    edge_row_offsets = np.cumsum([0] + [e.graph.num_edges for e in examples])
    dataflow_rows: List[np.ndarray] = []
    for row_offset, example in zip(edge_row_offsets[:-1], examples):
        if example.num_dataflow_edges:
            dataflow_rows.append(example.dataflow_edge_rows + row_offset)

    return CTExample(
        graph=merged_graph,
        labels=np.concatenate([e.labels for e in examples]),
        dataflow_edge_rows=(
            np.concatenate(dataflow_rows)
            if dataflow_rows
            else np.zeros(0, dtype=np.int64)
        ),
        dataflow_labels=np.concatenate(
            [e.dataflow_labels for e in examples]
        )
        if dataflow_rows
        else np.zeros(0, dtype=np.float64),
    )


def iter_batches(
    examples: Sequence[CTExample], rng: np.random.Generator
) -> Iterator[CTExample]:
    """One epoch's gradient steps: every example once, as its own batch,
    in the order of one ``rng.permutation``."""
    for index in rng.permutation(len(examples)):
        yield examples[int(index)]
