"""The PredictionBackend seam and the serving engine.

:class:`repro.core.scoring.CandidateScorer` calls an in-memory
predictor directly, or any ``backend=`` object exposing
``predict_proba_batch`` and ``threshold``; :class:`PredictionBackend`
derives the rest of the predictor surface (``predict_proba``,
``predict``/``predict_batch``) from those two:

- :class:`InProcessServer` is the socket server's engine: a single
  shared model behind one lock, fronted by a content-addressed
  :class:`~repro.serve.cache.PredictionCache`, with registry-driven
  hot-swap (:meth:`InProcessServer.swap_model`).
- :class:`repro.serve.server.SocketBackend` (separate module) speaks the
  same surface over a Unix socket to an :class:`InProcessServer` hosted
  elsewhere. A single-process campaign scores directly: measured as its
  backend, the in-process server was 1.8× slower (see
  ``docs/SERVING.md``).

Cache coherence across hot-swap: cache keys embed the model version, so
requests served before a swap read/write the old version's key space
and requests after it a fresh one — no explicit invalidation. A request
holds the model lock from its version pin to its last cache write, so
no swap can land between them.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.scoring import DEFAULT_BATCH_SIZE
from repro.obs.tracing import NOOP_SPAN
from repro.serve.cache import PredictionCache
from repro.serve.digest import graph_digest

__all__ = ["PredictionBackend", "InProcessServer"]

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


class InProcessServer(PredictionBackend):
    """One shared model + prediction cache, behind one lock.

    Thread-safe: any number of client threads may call the prediction
    methods concurrently. A request does all of its work on its own
    thread while holding ``_model_lock`` (see
    :meth:`predict_items_versioned`), and :meth:`swap_model` takes the
    same lock, so a reply is single-version by construction and the
    model's internal caches (encoder memo, base features, batch plans)
    never see concurrent writers. A second request for a graph that is
    being computed waits on the lock and then hits the cache.

    No thread is started: there is no queue to merge requests from. A
    socket client sends at most 8 graphs per request, and merging
    concurrent requests into one forward pass did not pay for its thread
    hop (``docs/SERVING.md``, "What the serve tier does not buy").
    """

    def __init__(
        self,
        model: object,
        version: str = "v0",
        cache: Optional[PredictionCache] = None,
        cache_bytes: Optional[int] = None,
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
        self._requests = 0
        #: Version tag of the most recent batch served to a caller —
        #: how explorers notice a hot-swap boundary (``None`` until the
        #: first prediction).
        self.observed_version: Optional[str] = None

    def _obs(self):
        """The effective registry: injected one, else the global one."""
        registry = self._obs_registry
        return registry if registry is not None else obs.active()

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

        Everything runs on the calling thread under ``_model_lock``: pin
        the version, look up the cache, materialise the distinct misses,
        score them in :data:`~repro.core.scoring.DEFAULT_BATCH_SIZE`-graph
        chunks (one 128-graph pool scores faster as 16 forwards of 8 than
        as one of 128) and cache the results. A swap waits for the whole
        request, so old-version hits never meet new-version computes.

        Results are cached under the digest each item claims, so its
        thunk must return a graph with that :func:`graph_digest` or raise.
        """
        items = list(items)
        registry = self._obs()
        with self._model_lock:
            version = self._version
            if not items:
                return version, []
            self._requests += 1
            if registry is not None:
                registry.counter("serve.requests").add(1)
            # The key format is :func:`repro.serve.digest.prediction_key`'s.
            keys = [f"{version}:{digest}" for digest, _materialise in items]
            with self._span(registry, "serve.cache") as span:
                results = [self.cache.get(key) for key in keys]
                hits = sum(1 for cached in results if cached is not None)
                span.set(hits=hits, misses=len(results) - hits)
            # Materialise every distinct miss before scoring any, so a
            # thunk that raises leaves nothing half-cached.
            missing: Dict[str, object] = {}
            for key, (_digest, materialise), cached in zip(keys, items, results):
                if cached is None and key not in missing:
                    missing[key] = materialise()
            graphs = list(missing.values())
            probas: List[np.ndarray] = []
            for start in range(0, len(graphs), DEFAULT_BATCH_SIZE):
                chunk = graphs[start : start + DEFAULT_BATCH_SIZE]
                with self._span(registry, "serve.compute", batch=len(chunk)):
                    probas.extend(self._model.predict_proba_batch(chunk))
            computed = dict(zip(missing, probas))
            for key, proba in computed.items():
                self.cache.put(key, proba)
            self.observed_version = version
        return version, [
            cached if cached is not None else computed[key]
            for key, cached in zip(keys, results)
        ]

    @staticmethod
    def _span(registry, name: str, **attrs: object):
        return registry.span(name, **attrs) if registry is not None else NOOP_SPAN

    # -- administration ------------------------------------------------------

    def swap_model(self, model: object, version: str) -> None:
        """Atomically replace the served model (registry hot-swap).

        Waits for any in-progress request to finish, then installs the
        new model and version. Cached predictions of the old version
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
        with self._model_lock:
            version = self._version
            requests = self._requests
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
        }
