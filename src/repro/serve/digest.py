"""Canonical content digests of CT graphs — the prediction cache key.

A served prediction is a pure function of (model parameters, graph
content): two requests whose graphs carry identical node features and
edges must hit the same cache line no matter which process, template
instance, or campaign generation produced them. The digest therefore
covers every array the PIC forward pass reads — node types, threads,
blocks, token ids and the base edges through :func:`template_digest`,
hint flags and schedule edges through
:func:`~repro.graphs.ctgraph.schedule_key` — plus the kernel version.

The schedule hints themselves are *not* hashed. The §3.1 encoding maps
a hint to the block containing it, so hint tuples that name different
instructions of the same blocks stamp identical graphs, the model
returns the same probabilities for them, and they share one cache line
(27–74% of a 1600-candidate pool is distinct on the pinned benchmark
CTIs). That is sound because the model never reads ``graph.hints``:
whatever a future encoding moves into the arrays lands in
``schedule_key``, the same definition the scoring memo uses.

Digesting ``token_ids`` dominates the cost (``num_nodes × max_tokens``
int64s), and that array is shared by every schedule of a CTI — graphs
stamped from one :class:`~repro.graphs.ctgraph.CTIGraphTemplate` alias
the same object. The template-level portion of the digest is memoised
per ``token_ids`` array (same keying discipline as the PIC model's
base-feature cache, holding a reference so ``id()`` cannot be reused), so a
candidate pool pays the big hash once and each candidate only hashes
its own hint flags and schedule edges.

Digests are in-memory cache keys and wire names only: nothing persists
them and no test or artefact pins a hex value, so the byte recipe may
change between commits (a server and its clients run the same code).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np

from repro.graphs.ctgraph import EDGE_SCHEDULE, CTGraph, schedule_key

__all__ = ["graph_digest", "template_digest", "prediction_key", "clear_digest_memo"]

#: Memo of template-level digest prefixes: id(token_ids) -> (token_ids,
#: hexdigest). Bounded; eviction is FIFO like the model's feature cache.
_TEMPLATE_MEMO: Dict[int, Tuple[np.ndarray, str]] = {}
_TEMPLATE_MEMO_CAP = 64


def _hash_arrays(hasher: "hashlib._Hash", *arrays: np.ndarray) -> None:
    for array in arrays:
        array = np.ascontiguousarray(array)
        # ``dtype.str`` is a C attribute; ``str(dtype)`` runs Python code.
        hasher.update(array.dtype.str.encode("ascii"))
        hasher.update(repr(array.shape).encode("ascii"))
        hasher.update(array.tobytes())


def template_digest(graph: CTGraph) -> str:
    """Digest of everything schedule-independent, memoised per template;
    doubles as the template's name on the serve wire."""
    key = id(graph.token_ids)
    cached = _TEMPLATE_MEMO.get(key)
    if cached is not None and cached[0] is graph.token_ids:
        return cached[1]
    hasher = hashlib.sha256()
    hasher.update(graph.kernel_version.encode("utf-8"))
    hasher.update(repr(graph.cti_key).encode("ascii"))
    base_rows = graph.edges[graph.edges[:, 2] != EDGE_SCHEDULE]
    _hash_arrays(
        hasher,
        graph.node_types,
        graph.node_threads,
        graph.node_blocks,
        graph.token_ids,
        base_rows,
    )
    prefix = hasher.hexdigest()
    if len(_TEMPLATE_MEMO) >= _TEMPLATE_MEMO_CAP:
        # pop(): handler threads digest concurrently and may race here.
        _TEMPLATE_MEMO.pop(next(iter(_TEMPLATE_MEMO)), None)
    _TEMPLATE_MEMO[key] = (graph.token_ids, prefix)
    return prefix


def graph_digest(graph: CTGraph) -> str:
    """Hex digest of one CT graph's full prediction-relevant content.

    Canonical: graphs built independently (different template objects,
    different processes) digest identically iff the arrays the model
    reads match — hint tuples that land in the same blocks share a
    digest, and any change to the hint flags or schedule edges changes
    it.
    """
    hasher = hashlib.sha256()
    hasher.update(template_digest(graph).encode("ascii"))
    hasher.update(schedule_key(graph))
    return hasher.hexdigest()


def prediction_key(model_version: str, graph: CTGraph) -> str:
    """The content-addressed cache key: model version + graph digest.

    Including the model version means a registry hot-swap implicitly
    invalidates every cached prediction of the previous version — stale
    entries simply stop being addressed and age out of the LRU.
    """
    return f"{model_version}:{graph_digest(graph)}"


def clear_digest_memo() -> None:
    """Drop the template-prefix memo (tests; never needed in production)."""
    _TEMPLATE_MEMO.clear()
