"""Content-addressed LRU cache of served predictions.

Keys are :func:`repro.serve.digest.prediction_key` strings (model
version + canonical graph digest); values are the per-node probability
arrays the model produced. The cache is bounded by *bytes*, not entry
count — prediction arrays scale with graph size, so a count bound would
make memory use depend on workload shape.

Thread safety: one lock around every operation. Lookups, insertions
and evictions are dict/deque manipulations — microseconds against a
model forward pass — so a single lock never becomes a bottleneck.

Telemetry: ``serve.cache.hits`` / ``serve.cache.misses`` /
``serve.cache.evictions`` counters and a ``serve.cache.bytes`` gauge,
mirrored by :meth:`PredictionCache.stats` for the socket server's
``status`` op.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from repro import obs

__all__ = ["PredictionCache", "DEFAULT_CACHE_BYTES"]

#: Default byte budget (64 MiB) — thousands of small-kernel predictions.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

#: Accounting overhead charged per entry on top of the array payload
#: (key string, dict slot, array header). Approximate by design: the
#: budget bounds order-of-magnitude memory, not malloc-exact bytes.
_ENTRY_OVERHEAD = 200


class PredictionCache:
    """Byte-bounded, content-addressed LRU of prediction arrays."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError("cache byte budget must be positive")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @staticmethod
    def _cost(key: str, value: np.ndarray) -> int:
        return int(value.nbytes) + len(key) + _ENTRY_OVERHEAD

    def get(self, key: str) -> Optional[np.ndarray]:
        """The cached array for ``key`` (freshened to most-recently-used),
        or ``None``. Returned arrays are read-only views of the stored
        value — a consumer mutating its result cannot poison the cache."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                obs.add("serve.cache.misses")
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            obs.add("serve.cache.hits")
            return value

    def put(self, key: str, value: np.ndarray) -> None:
        """Insert (or refresh) ``key``; evicts LRU entries over budget.

        A value bigger than the whole budget is simply not cached —
        evicting everything to fit one giant entry would be strictly
        worse than computing it again next time.
        """
        value = np.ascontiguousarray(value)
        value.setflags(write=False)
        cost = self._cost(key, value)
        with self._lock:
            if cost > self.max_bytes:
                return
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= self._cost(key, previous)
            self._entries[key] = value
            self._bytes += cost
            while self._bytes > self.max_bytes:
                evicted_key, evicted = self._entries.popitem(last=False)
                self._bytes -= self._cost(evicted_key, evicted)
                self._evictions += 1
                obs.add("serve.cache.evictions")
            obs.gauge("serve.cache.bytes", self._bytes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> Dict[str, float]:
        """Hit/miss/eviction/occupancy snapshot (the ``status`` payload)."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }
