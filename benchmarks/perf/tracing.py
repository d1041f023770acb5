"""In-memory spans at the campaign's public seams, and the layer table.

The traced pass runs the real ``run_campaign`` / ``run_fleet``; the only
difference from the untraced pass is that the objects handed in at public
seams (constructor arguments and public explorer attributes) are
:class:`Seam` proxies that time the named calls and delegate everything
else. Spans stay in memory (one row per call) and are reduced to the
per-layer metrics when the pass ends. A layer's self time is its spans'
duration minus the part covered by child spans, so the self times of all
layers plus ``bench.unattributed_s`` (the root span's self time) sum to
the traced wall.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["LAYER_METRICS", "Tracer", "Seam", "layer_table"]

#: Every per-layer metric the benchmark reports, with its unit. Layers
#: are named after the ``repro`` modules they time. ``BENCHMARK.json``'s
#: ``per_layer`` list must name exactly these (``--check`` verifies it).
LAYER_METRICS: Dict[str, str] = {
    "execution.pct.propose_s": "s",
    "execution.pct.candidates": "count",
    "graphs.graph_for_s": "s",
    "graphs.calls": "count",
    "graphs.us_per_graph": "us",
    "ml.pic.forward_s": "s",
    "ml.pic.batches": "count",
    "ml.pic.graphs": "count",
    "ml.pic.mean_batch": "count",
    "ml.pic.us_per_graph": "us",
    "core.strategies.select_s": "s",
    "core.strategies.calls": "count",
    "core.strategies.accept_share": "ratio",
    "execution.run_s": "s",
    "execution.runs": "count",
    "execution.steps": "count",
    "execution.ms_per_run": "ms",
    "execution.us_per_step": "us",
    "execution.races.observe_s": "s",
    "execution.races.calls": "count",
    "execution.races.ms_per_observe": "ms",
    "execution.races.unique": "count",
    "core.mlpct.loop_self_s": "s",
    "core.mlpct.ctis": "count",
    "core.mlpct.inferences": "count",
    "core.mlpct.executions": "count",
    "core.mlpct.saved_share": "ratio",
    "serve.call_s": "s",
    "serve.calls": "count",
    "serve.call_p50_ms": "ms",
    "serve.call_p99_ms": "ms",
    "serve.s1_us_per_graph": "us",
    "serve.s2_us_per_graph": "us",
    "serve.cache_hits": "count",
    "serve.cache_misses": "count",
    "serve.hit_share": "ratio",
    "serve.server_cpu_s": "s",
    "serve.client_cpu_s": "s",
    "serve.encode_us_per_graph": "us",
    "serve.decode_us_per_graph": "us",
    "serve.request_bytes_per_graph": "B",
    "fleet.jobs": "count",
    "fleet.reassignments": "count",
    "fleet.receipts": "count",
    "fleet.receipt_bytes": "B",
    "fleet.worker_cpu_s": "s",
    "fleet.coordinator_cpu_s": "s",
    "fleet.worker_busy_share": "ratio",
    "fleet.speedup_vs_local": "ratio",
    "fleet.cpu_ratio_vs_local": "ratio",
    "resilience.journal.record_s": "s",
    "resilience.journal.records": "count",
    "resilience.journal.ms_per_record": "ms",
    "resilience.journal.bytes": "B",
    "bench.trace_overhead_ratio": "ratio",
    "bench.unattributed_s": "s",
}

#: The root span's layer: its self time is ``bench.unattributed_s``.
ROOT = "bench"

Units = Callable[[tuple, object], Dict[str, int]]


class Tracer:
    """Span rows ``[layer, start, end, parent]`` plus seam-side counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []

    def enter(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, layer: str, call: Callable, units: Optional[Units] = None) -> Callable:
        """``call`` timed as one ``layer`` span per invocation.

        ``units(args, result)`` names the work counters the call adds
        (graphs in a batch, steps in a run), counted where the work
        happens so per-unit costs divide by the right number.
        """

        def timed(*args, **kwargs):
            index = self.enter(layer)
            try:
                result = call(*args, **kwargs)
            finally:
                self.exit(index)
            if units is not None:
                self.counts.update(units(args, result))
            return result

        return timed

    def durations(self, layer: str) -> List[float]:
        return [end - start for name, start, end, _ in self.spans if name == layer]

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: span durations minus their child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for index, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        totals: Dict[str, float] = {}
        for (layer, _, _, _), seconds in zip(self.spans, own):
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if span[0] == layer)


class Seam:
    """Delegating proxy that times the named methods of ``target``.

    ``timed`` maps a method name to ``(layer, units)``. Every other
    attribute read goes straight to the target, so the proxy can stand
    in at any seam that only calls methods and reads attributes.
    """

    def __init__(self, target: object, tracer: Tracer, timed: Dict[str, tuple]) -> None:
        self._target = target
        self._tracer = tracer
        self._timed = timed

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        value = getattr(self._target, name)
        spec = self._timed.get(name)
        if spec is None:
            return value
        wrapped = self._tracer.wrap(spec[0], value, spec[1])
        # Cached on the instance: later reads skip __getattr__ entirely.
        self.__dict__[name] = wrapped
        return wrapped


def _per(total: float, units: float, scale: float) -> float:
    return total * scale / units if units else 0.0


def _percentile(values: Sequence[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_table(one) -> Dict[str, float]:
    """Reduce one traced :class:`workloads.Pass` to the :data:`LAYER_METRICS`.

    ``one.facts`` carries, by metric name, what spans cannot see: cache
    statistics from the server's ``status``, CPU seconds from
    ``getrusage``, file sizes, and the codec timings. Metrics of a layer
    the workload never enters are 0.
    """
    tracer = one.tracer
    own = tracer.self_seconds()
    counts = tracer.counts
    table = dict.fromkeys(LAYER_METRICS, 0.0)

    table["execution.pct.propose_s"] = own.get("execution.pct", 0.0)
    table["execution.pct.candidates"] = counts["candidates"]

    table["graphs.graph_for_s"] = own.get("graphs", 0.0)
    table["graphs.calls"] = tracer.calls("graphs")
    table["graphs.us_per_graph"] = _per(
        table["graphs.graph_for_s"], table["graphs.calls"], 1e6
    )

    table["ml.pic.forward_s"] = own.get("ml.pic", 0.0)
    table["ml.pic.batches"] = tracer.calls("ml.pic")
    table["ml.pic.graphs"] = counts["pic_graphs"]
    table["ml.pic.mean_batch"] = _per(counts["pic_graphs"], table["ml.pic.batches"], 1.0)
    table["ml.pic.us_per_graph"] = _per(
        table["ml.pic.forward_s"], counts["pic_graphs"], 1e6
    )

    table["core.strategies.select_s"] = own.get("core.strategies", 0.0)
    table["core.strategies.calls"] = tracer.calls("core.strategies")
    table["core.strategies.accept_share"] = _per(
        counts["selected"], counts["considered"], 1.0
    )

    table["execution.run_s"] = own.get("execution", 0.0)
    table["execution.runs"] = counts["runs"]
    table["execution.steps"] = counts["steps"]
    table["execution.ms_per_run"] = _per(table["execution.run_s"], counts["runs"], 1e3)
    table["execution.us_per_step"] = _per(table["execution.run_s"], counts["steps"], 1e6)

    table["execution.races.observe_s"] = own.get("execution.races", 0.0)
    table["execution.races.calls"] = tracer.calls("execution.races")
    table["execution.races.ms_per_observe"] = _per(
        table["execution.races.observe_s"], table["execution.races.calls"], 1e3
    )
    table["execution.races.unique"] = one.races

    table["core.mlpct.loop_self_s"] = own.get("core.mlpct", 0.0)
    table["core.mlpct.ctis"] = one.ctis
    table["core.mlpct.inferences"] = one.inferences
    table["core.mlpct.executions"] = one.executions
    table["core.mlpct.saved_share"] = (
        1.0 - one.executions / one.inferences if one.inferences else 0.0
    )

    serve_calls = tracer.durations("serve")
    table["serve.call_s"] = own.get("serve", 0.0)
    table["serve.calls"] = len(serve_calls)
    table["serve.call_p50_ms"] = statistics.median(serve_calls) * 1e3 if serve_calls else 0.0
    table["serve.call_p99_ms"] = _percentile(serve_calls, 0.99) * 1e3

    table["resilience.journal.record_s"] = own.get("resilience.journal", 0.0)
    table["resilience.journal.records"] = counts["journal_records"]
    table["resilience.journal.ms_per_record"] = _per(
        table["resilience.journal.record_s"], counts["journal_records"], 1e3
    )

    table["bench.unattributed_s"] = own.get(ROOT, 0.0)
    table.update(one.facts)
    return {name: float(value) for name, value in table.items()}
