"""``repro.serve`` — the shared PIC inference service.

Snowcat's economics make the PIC predictor the hot shared resource: a
prediction is ~190× cheaper than a dynamic execution (§5.2.2), so every
consumer — MLPCT campaigns, Razzer-PIC, SB-PIC, continuous testing —
hammers the model far harder than it hammers the kernel. Before this
subsystem each of those consumers loaded its *own* ``PICModel`` and
re-scored identical candidate graphs from scratch; ``repro.serve`` turns
prediction into a service with four layers:

- :mod:`repro.serve.registry` — :class:`ModelRegistry`: versioned,
  checksummed checkpoints with atomic publish, hot-swap activation, and
  one-step rollback (durable via :mod:`repro.resilience.atomic`).
- :mod:`repro.serve.cache` — :class:`PredictionCache`: a
  content-addressed LRU keyed by a canonical digest of (model version,
  CT graph structure, schedule hints) so repeated candidates across
  strategies and campaign generations are never re-scored
  (:mod:`repro.serve.digest` defines the key).
- :mod:`repro.serve.batching` — :class:`MicroBatcher`: one request's
  misses are one queued unit; the worker merges whatever units are
  queued (up to ``max_batch`` graphs) into one ``predict_proba_batch``
  call and never waits on a clock, behind a bounded queue with
  admission control; also the model's concurrency discipline — all
  inference runs on the batcher thread, so the ``PICModel``'s internal
  caches never see concurrent writers.
- :mod:`repro.serve.backend` / :mod:`repro.serve.server` — the
  :class:`PredictionBackend` seam consumed by
  :class:`repro.core.scoring.CandidateScorer`: :class:`LocalBackend`
  (a transparent pass-through), :class:`InProcessServer` (one shared
  model + cache + batcher: the server's engine), and a Unix-socket
  JSON server/client pair (:class:`PredictionServer` /
  :class:`SocketBackend`, length-prefixed frames over stdlib
  ``socketserver``) so parallel campaign workers share one model
  instance instead of N copies. A single-process campaign scores
  directly; there is no in-process serving mode.

Everything is instrumented through :mod:`repro.obs` under the
``serve.*`` namespace; see ``docs/SERVING.md`` for the architecture,
cache semantics, and tuning knobs.
"""

from __future__ import annotations

from repro.serve.backend import InProcessServer, LocalBackend, PredictionBackend
from repro.serve.batching import BatcherConfig, MicroBatcher
from repro.serve.cache import PredictionCache
from repro.serve.digest import graph_digest, prediction_key
from repro.serve.registry import ModelRecord, ModelRegistry
from repro.serve.server import (
    PredictionServer,
    ServerConfig,
    SocketBackend,
    probe_socket,
    serve_forever,
)

__all__ = [
    "PredictionBackend",
    "LocalBackend",
    "InProcessServer",
    "BatcherConfig",
    "MicroBatcher",
    "PredictionCache",
    "graph_digest",
    "prediction_key",
    "ModelRecord",
    "ModelRegistry",
    "PredictionServer",
    "ServerConfig",
    "SocketBackend",
    "probe_socket",
    "serve_forever",
]
