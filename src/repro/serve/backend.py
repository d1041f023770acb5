"""The PredictionBackend seam and the serving engine.

:class:`repro.core.scoring.CandidateScorer` historically called its
predictor directly; the backend seam generalises that call-site to
anything exposing the predictor surface (``predict_proba``,
``predict_proba_batch``, ``predict``/``predict_batch``, ``threshold``):

- :class:`LocalBackend` wraps a plain predictor with zero added
  machinery — it is the default and is byte-identical to calling the
  predictor directly.
- :class:`InProcessServer` is the socket server's engine: a single
  shared model behind a :class:`~repro.serve.batching.MicroBatcher`
  (which serialises all inference onto one thread), fronted by a
  content-addressed :class:`~repro.serve.cache.PredictionCache`, with
  registry-driven hot-swap (:meth:`InProcessServer.swap_model`).
- :class:`repro.serve.server.SocketBackend` (separate module) speaks the
  same surface over a Unix socket to an :class:`InProcessServer` hosted
  elsewhere. A single-process campaign scores directly: measured as its
  backend, the in-process server only added a batcher thread (see
  ``docs/SERVING.md``).

Cache coherence across hot-swap: cache keys embed the model version, so
requests admitted before a swap read/write the old version's key space
and requests after it a fresh one — no explicit invalidation. The one
subtle race (a request keyed against version A whose compute lands on
version B mid-swap) is closed by tagging every computed result with the
version that produced it and refusing to cache a mismatch.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.serve.batching import BatcherConfig, MicroBatcher
from repro.serve.cache import PredictionCache
from repro.serve.digest import graph_digest

__all__ = ["PredictionBackend", "LocalBackend", "InProcessServer"]

#: One unit of a served batch: the graph's content digest plus a thunk
#: producing the graph, called only when the digest misses the cache.
GraphItem = Tuple[str, Callable[[], object]]


class PredictionBackend:
    """The predictor surface scoring code consumes.

    Subclasses provide :meth:`predict_proba_batch` and :attr:`threshold`;
    the boolean variants derive from them, matching
    :class:`~repro.ml.pic.PICModel` semantics exactly.
    """

    @property
    def threshold(self) -> float:
        raise NotImplementedError

    def predict_proba_batch(self, graphs: Sequence[object]) -> List[np.ndarray]:
        raise NotImplementedError

    def predict_proba(self, graph: object) -> np.ndarray:
        return self.predict_proba_batch([graph])[0]

    def predict(self, graph: object) -> np.ndarray:
        return self.predict_proba(graph) >= self.threshold

    def predict_batch(self, graphs: Sequence[object]) -> List[np.ndarray]:
        threshold = self.threshold
        return [proba >= threshold for proba in self.predict_proba_batch(graphs)]

    def stats(self) -> dict:
        return {}

    def close(self) -> None:
        """Release any resources (threads, sockets). Idempotent."""


class LocalBackend(PredictionBackend):
    """Transparent pass-through to an in-memory predictor (the default).

    Adds no queueing, caching, or copying — calls land on the wrapped
    predictor exactly as direct calls would, so results (and campaign
    outcomes) are byte-identical to not using a backend at all.
    """

    def __init__(self, predictor: object) -> None:
        self.predictor = predictor

    @property
    def threshold(self) -> float:
        return float(getattr(self.predictor, "threshold", 0.5))

    def predict_proba_batch(self, graphs: Sequence[object]) -> List[np.ndarray]:
        batch = getattr(self.predictor, "predict_proba_batch", None)
        if batch is not None:
            return batch(graphs)
        return [self.predictor.predict_proba(graph) for graph in graphs]

    def stats(self) -> dict:
        return {"backend": "local"}


class InProcessServer(PredictionBackend):
    """One shared model + prediction cache + micro-batcher.

    Thread-safe: any number of client threads may call the prediction
    methods concurrently. Cache lookups happen on the calling thread;
    every actual forward pass is submitted to the batcher and runs on
    its single worker thread, holding ``_model_lock`` so a concurrent
    :meth:`swap_model` can never interleave with inference.

    Two concurrent requests missing on the same graph each submit it;
    the results are bitwise equal and the cache keeps one. A request
    dedupes its own repeats; across requests, neither one socket client
    nor a two-worker fleet ever had one graph in flight twice on the
    benchmark deployment (0 of 6,916 submitted graphs), so nothing
    tracks pending computes.
    """

    def __init__(
        self,
        model: object,
        version: str = "v0",
        cache: Optional[PredictionCache] = None,
        cache_bytes: Optional[int] = None,
        batcher_config: Optional[BatcherConfig] = None,
        registry=None,
    ) -> None:
        if cache is not None and cache_bytes is not None:
            raise ValueError("pass either cache or cache_bytes, not both")
        self._model = model
        self._version = version
        #: Explicit telemetry registry; ``None`` falls back to the
        #: process-global one. Injection exists so a server sharing a
        #: process with its client (tests, embedded serving) can keep
        #: its span tree in a separate trace file.
        self._obs_registry = registry
        self._model_lock = threading.Lock()
        self.cache = cache if cache is not None else PredictionCache(
            **({"max_bytes": cache_bytes} if cache_bytes is not None else {})
        )
        self._batcher = MicroBatcher(self._compute, batcher_config)
        self._requests = 0
        self._stats_lock = threading.Lock()
        #: Version tag of the most recent batch served to a caller —
        #: how explorers notice a hot-swap boundary (``None`` until the
        #: first prediction).
        self.observed_version: Optional[str] = None

    # -- telemetry plumbing --------------------------------------------------

    def _obs(self):
        """The effective registry: injected one, else the global one."""
        registry = self._obs_registry
        return registry if registry is not None else obs.active()

    def _emit_batch_spans(
        self, registry, pendings, anchor_registry: float, anchor_batcher: float
    ) -> None:
        """Synthetic serve.batch/serve.queue_wait/serve.model spans.

        The batcher stamps its lifecycle timestamps in *its* clock on
        another thread; this maps them into the registry's timeline via
        a pair of anchors sampled at request entry and emits one
        sub-tree per request (under the thread's open span, e.g. the
        server's ``serve.request``).
        """

        def rel(stamp: float) -> float:
            return anchor_registry + (stamp - anchor_batcher)

        enqueued = pendings[0].enqueued_at  # one stamp; units run in order
        model_start, model_end = pendings[0].compute_start, pendings[-1].compute_end
        queue_wait = max(model_start - enqueued, 0.0)
        model_seconds = max(model_end - model_start, 0.0)
        batch_size = max(pending.batch_size for pending in pendings)
        open_span = registry.current_span()
        base_depth = open_span.depth + 1 if open_span is not None else 0
        batch_id = registry.record_span(
            "serve.batch",
            start=rel(enqueued),
            duration=max(model_end - enqueued, 0.0),
            attrs={"batch": batch_size, "queue_wait": round(queue_wait, 6)},
            child_seconds=queue_wait + model_seconds,
        )
        registry.record_span(
            "serve.queue_wait",
            start=rel(enqueued),
            duration=queue_wait,
            parent=batch_id,
            depth=base_depth + 1,
        )
        registry.record_span(
            "serve.model",
            start=rel(model_start),
            duration=model_seconds,
            attrs={"batch": batch_size},
            parent=batch_id,
            depth=base_depth + 1,
        )

    # -- the single compute path ---------------------------------------------

    def _compute(self, graphs: List[object]) -> List[tuple]:
        """Batcher worker entry: one forward pass for a gathered batch.

        Tags each result with the version that produced it so the
        requesting side can detect a hot-swap that raced its request.
        """
        registry = self._obs()
        with self._model_lock:
            model = self._model
            version = self._version
            if registry is not None:
                with registry.span("serve.compute", batch=len(graphs)):
                    probas = model.predict_proba_batch(list(graphs))
            else:
                probas = model.predict_proba_batch(list(graphs))
        return [(version, proba) for proba in probas]

    # -- the predictor surface -----------------------------------------------

    @property
    def threshold(self) -> float:
        with self._model_lock:
            return float(getattr(self._model, "threshold", 0.5))

    @property
    def version(self) -> str:
        with self._model_lock:
            return self._version

    def predict_proba_batch(self, graphs: Sequence[object]) -> List[np.ndarray]:
        return self.predict_proba_batch_versioned(graphs)[1]

    def predict_proba_batch_versioned(
        self, graphs: Sequence[object]
    ) -> Tuple[str, List[np.ndarray]]:
        """:meth:`predict_items_versioned` for callers holding graphs."""
        return self.predict_items_versioned(
            [(graph_digest(graph), lambda graph=graph: graph) for graph in graphs]
        )

    def predict_items_versioned(
        self, items: Sequence[GraphItem]
    ) -> Tuple[str, List[np.ndarray]]:
        """One batch plus the single model version that produced it.

        A batch is never mixed-version: if a concurrent
        :meth:`swap_model` lands between this request reading the
        version and the batcher running its forward pass, the partial
        gather (old-version cache hits plus new-version computes) is
        discarded and retried; under sustained swap churn the batch is
        finally scored in one piece under the model lock, which no swap
        can interleave with.

        Results are cached under the digest each item claims, so its
        thunk must return a graph with that :func:`graph_digest` or raise.
        """
        items = list(items)
        if not items:
            with self._model_lock:
                return self._version, []
        with self._stats_lock:
            self._requests += 1
        registry = self._obs()
        for _attempt in range(3):
            version, results, raced = self._gather_batch(items, registry)
            if not raced:
                self.observed_version = version
                return version, results
        # Swap churn outran the optimistic path: score the whole batch
        # in one forward pass under the model lock, where the version
        # and the weights cannot diverge.
        graphs = [materialise() for _digest, materialise in items]
        with self._model_lock:
            version = self._version
            probas = self._model.predict_proba_batch(graphs)
        for (digest, _materialise), proba in zip(items, probas):
            self.cache.put(f"{version}:{digest}", proba)
        self.observed_version = version
        return version, probas

    def _gather_batch(
        self, items: List[GraphItem], registry
    ) -> Tuple[str, List[np.ndarray], bool]:
        """One optimistic cache+batcher pass; ``raced`` flags a batch
        whose computed results came from a different version than the
        one this request (and its cache hits) pinned at entry."""
        if registry is not None:
            registry.counter("serve.requests").add(1)
            # Anchor pair: same instant in the registry's timeline and
            # the batcher's clock, for mapping worker-side stamps.
            anchor_registry = registry.now()
            anchor_batcher = self._batcher._clock()
        with self._model_lock:
            version = self._version
        # The key format is :func:`repro.serve.digest.prediction_key`'s.
        keys = [f"{version}:{digest}" for digest, _materialise in items]
        cache_started = registry.now() if registry is not None else 0.0
        results: List[Optional[np.ndarray]] = [self.cache.get(key) for key in keys]
        if registry is not None:
            hits = sum(1 for cached in results if cached is not None)
            registry.record_span(
                "serve.cache",
                start=cache_started,
                duration=max(registry.now() - cache_started, 0.0),
                attrs={"hits": hits, "misses": len(results) - hits},
            )

        # Materialise every distinct miss before submitting any, so a
        # thunk that raises leaves nothing queued.
        missing: Dict[str, object] = {}
        for key, (_digest, materialise), cached in zip(keys, items, results):
            if cached is None and key not in missing:
                missing[key] = materialise()
        computed: Dict[str, np.ndarray] = {}
        raced = False
        if missing:
            # Queued together: up to max_batch misses are one forward pass.
            pendings = self._batcher.submit(list(missing.values()))
            tagged = (value for pending in pendings for value in pending.result())
            for key, (computed_version, proba) in zip(missing, tagged):
                if computed_version == version:
                    self.cache.put(key, proba)
                else:
                    raced = True
                computed[key] = proba
            if registry is not None:
                self._emit_batch_spans(
                    registry, pendings, anchor_registry, anchor_batcher
                )
        return (
            version,
            [
                cached if cached is not None else computed[key]
                for key, cached in zip(keys, results)
            ],
            raced,
        )

    # -- administration ------------------------------------------------------

    def swap_model(self, model: object, version: str) -> None:
        """Atomically replace the served model (registry hot-swap).

        Waits for any in-progress forward pass to finish, then installs
        the new model and version. Cached predictions of the old version
        stop being addressed (keys embed the version) and age out.
        """
        with self._model_lock:
            old = self._version
            self._model = model
            self._version = version
        registry = self._obs()
        if registry is not None:
            registry.point("serve.swap", previous=old, version=version)

    def stats(self) -> dict:
        with self._stats_lock:
            requests = self._requests
        with self._model_lock:
            version = self._version
            config = getattr(self._model, "config", None)
            model_name = getattr(config, "name", "?")
            vocab_size = int(getattr(config, "vocab_size", 0))
            threshold = float(getattr(self._model, "threshold", 0.5))
        return {
            "backend": "in-process",
            "version": version,
            "model_name": model_name,
            "threshold": threshold,
            "vocab_size": vocab_size,
            "requests": requests,
            "cache": self.cache.stats(),
            "batcher": self._batcher.stats(),
        }

    def close(self) -> None:
        self._batcher.close()
