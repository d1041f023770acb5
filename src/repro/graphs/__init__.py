"""Concurrent-test graph representation and dataset construction (§3.1).

A CT (two STIs + scheduling hints) becomes a graph whose vertices are
per-thread kernel basic blocks (SCBs and URBs) and whose edges are the five
paper types — SCB control flow, URB control flow, intra-thread dataflow,
inter-thread potential dataflow, scheduling hints — plus shortcut
densification edges (§5.1.1).
"""

from repro.graphs.tokens import Vocabulary, build_vocabulary, block_token_ids
from repro.graphs.ctgraph import (
    EDGE_INTER_DATAFLOW,
    EDGE_INTRA_DATAFLOW,
    EDGE_SCB_FLOW,
    EDGE_SCHEDULE,
    EDGE_SHORTCUT,
    EDGE_URB_FLOW,
    HINT_NONE,
    HINT_SOURCE,
    HINT_TARGET,
    NODE_SCB,
    NODE_URB,
    NUM_EDGE_TYPES,
    NUM_HINT_FLAGS,
    NUM_NODE_TYPES,
    CTGraph,
    CTIGraphTemplate,
    build_ct_graph,
    build_ct_template,
    schedule_key,
)
from repro.graphs.dataset import CTExample, DatasetSplits, GraphDatasetBuilder

__all__ = [
    "Vocabulary",
    "build_vocabulary",
    "block_token_ids",
    "CTGraph",
    "CTIGraphTemplate",
    "build_ct_graph",
    "build_ct_template",
    "schedule_key",
    "NODE_SCB",
    "NODE_URB",
    "NUM_NODE_TYPES",
    "HINT_NONE",
    "HINT_SOURCE",
    "HINT_TARGET",
    "NUM_HINT_FLAGS",
    "EDGE_SCB_FLOW",
    "EDGE_URB_FLOW",
    "EDGE_INTRA_DATAFLOW",
    "EDGE_INTER_DATAFLOW",
    "EDGE_SCHEDULE",
    "EDGE_SHORTCUT",
    "NUM_EDGE_TYPES",
    "CTExample",
    "DatasetSplits",
    "GraphDatasetBuilder",
]
