"""Operational exports: Prometheus exposition, heartbeats, live views.

Three consumers of the same :class:`~repro.obs.MetricsRegistry` data:

- :func:`render_prometheus` turns a registry snapshot into
  Prometheus text exposition (counters → ``*_total``, gauges plain,
  histograms as summaries with ``quantile`` labels, span aggregates as
  labelled counters). The serve server's ``metrics`` op returns this,
  so ``repro serve metrics --socket PATH`` is the ``/metrics`` endpoint
  of the stack.
- :class:`HeartbeatWriter` + :func:`read_heartbeat` +
  :func:`render_top` are the campaign progress channel: the campaign
  loop writes a small JSON status file atomically (throttled, durable
  via :mod:`repro.resilience.atomic`), and ``repro top`` renders any
  number of them as a live fleet table with rates and ETAs.
- :func:`render_serve_watch` is one refresh line of
  ``repro serve status --watch``: qps and latency percentiles computed
  from successive server snapshots.

Everything here is read-side and pure (given snapshots); nothing
touches an RNG stream or runs unless explicitly invoked.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.reporting import format_table

__all__ = [
    "render_prometheus",
    "snapshot_from_stats",
    "HeartbeatWriter",
    "read_heartbeat",
    "render_top",
    "render_fleet_top",
    "render_learn_top",
    "render_serve_watch",
]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str, namespace: str = "repro") -> str:
    cleaned = _NAME_SANITIZER.sub("_", str(name))
    if not re.match(r"^[a-zA-Z_:]", cleaned):
        cleaned = "_" + cleaned
    return f"{namespace}_{cleaned}"


def _escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(
    snapshot: Dict[str, object], namespace: str = "repro"
) -> str:
    """Prometheus text exposition (format 0.0.4) of a registry snapshot.

    ``snapshot`` is :meth:`MetricsRegistry.snapshot` output (or the
    :func:`snapshot_from_stats` fallback). Histograms are exported as
    *summaries* — the registry keeps fixed-bucket estimates, and the
    p50/p90/p99 quantiles are what the serving dashboards watch — and
    span aggregates become ``<ns>_span_seconds_total{span="..."}``
    counters so stage attribution survives scraping.
    """
    lines: List[str] = []
    counters = snapshot.get("counters") or {}
    for name in sorted(counters):
        metric = _metric_name(name, namespace) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counters[name])}")
    gauges = snapshot.get("gauges") or {}
    for name in sorted(gauges):
        metric = _metric_name(name, namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauges[name])}")
    histograms = snapshot.get("histograms") or {}
    for name in sorted(histograms):
        summary = histograms[name] or {}
        metric = _metric_name(name, namespace)
        lines.append(f"# TYPE {metric} summary")
        for quantile, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            lines.append(
                f'{metric}{{quantile="{quantile}"}} '
                f"{_format_value(float(summary.get(key, 0.0)))}"
            )
        lines.append(f"{metric}_sum {_format_value(float(summary.get('sum', 0.0)))}")
        lines.append(f"{metric}_count {_format_value(int(summary.get('count', 0)))}")
    span_stats = snapshot.get("spans") or {}
    if span_stats:
        seconds_metric = f"{namespace}_span_seconds_total"
        count_metric = f"{namespace}_span_count_total"
        lines.append(f"# TYPE {seconds_metric} counter")
        for name in sorted(span_stats):
            stats = span_stats[name] or {}
            lines.append(
                f'{seconds_metric}{{span="{_escape_label(name)}"}} '
                f"{_format_value(float(stats.get('total', 0.0)))}"
            )
        lines.append(f"# TYPE {count_metric} counter")
        for name in sorted(span_stats):
            stats = span_stats[name] or {}
            lines.append(
                f'{count_metric}{{span="{_escape_label(name)}"}} '
                f"{_format_value(int(stats.get('count', 0)))}"
            )
    return "\n".join(lines) + "\n"


def snapshot_from_stats(stats: Dict[str, object]) -> Dict[str, object]:
    """A registry-shaped snapshot synthesised from backend ``stats()``.

    The serve server's ``metrics`` op falls back to this when the
    server process runs without a telemetry registry, so the exposition
    endpoint always has the request and cache core series.
    """
    cache = stats.get("cache") or {}
    counters = {
        "serve.requests": int(stats.get("requests", 0)),
        "serve.cache.hits": int(cache.get("hits", 0)),
        "serve.cache.misses": int(cache.get("misses", 0)),
        "serve.cache.evictions": int(cache.get("evictions", 0)),
    }
    gauges = {
        "serve.cache.bytes": float(cache.get("bytes", 0)),
        "serve.cache.hit_rate": float(cache.get("hit_rate", 0.0)),
    }
    return {"counters": counters, "gauges": gauges, "histograms": {}, "spans": {}}


# -- campaign heartbeats ------------------------------------------------------


class HeartbeatWriter:
    """Throttled atomic campaign-progress snapshots for ``repro top``.

    One writer follows one campaign process through any number of
    campaigns (``begin`` resets the rate clock per campaign). ``update``
    is cheap enough for the per-CTI loop: it returns without touching
    the filesystem unless ``interval`` seconds have passed since the
    last write (or ``force=True``), and each write is a whole-file
    atomic replace so ``repro top`` never reads a torn snapshot.
    """

    def __init__(
        self,
        path: str,
        interval: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        self.path = path
        self.interval = float(interval)
        self._clock = clock
        self._origin = clock()
        self._last_write: Optional[float] = None
        self._label = "?"
        self._total = 0

    def begin(self, label: str, total: int, done: int = 0) -> None:
        """Start following a campaign of ``total`` units (resume-aware:
        pass the already-completed count as ``done``)."""
        self._label = str(label)
        self._total = int(total)
        self._origin = self._clock()
        self._last_write = None
        self.update(done=done, force=True)

    def update(
        self,
        done: int,
        races: int = 0,
        executions: int = 0,
        force: bool = False,
        **extra: object,
    ) -> bool:
        """Write a snapshot if due; returns whether a write happened."""
        now = self._clock()
        finished = self._total and done >= self._total
        if (
            not force
            and not finished
            and self._last_write is not None
            and now - self._last_write < self.interval
        ):
            return False
        elapsed = max(now - self._origin, 0.0)
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = max(self._total - done, 0)
        eta = remaining / rate if rate > 0 else None
        payload: Dict[str, object] = {
            "label": self._label,
            "pid": os.getpid(),
            "done": int(done),
            "total": self._total,
            "races": int(races),
            "executions": int(executions),
            "elapsed_seconds": round(elapsed, 3),
            "rate_per_second": round(rate, 4),
            "eta_seconds": round(eta, 1) if eta is not None else None,
            "updated_unix": time.time(),
        }
        payload.update(extra)
        from repro.resilience.atomic import atomic_write_text

        atomic_write_text(self.path, json.dumps(payload, sort_keys=True))
        self._last_write = now
        return True

    def close(self) -> None:
        """Nothing held open — snapshots are whole-file replaces."""


def read_heartbeat(path: str) -> Optional[Dict[str, object]]:
    """Load one heartbeat snapshot; ``None`` if absent or unreadable."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    seconds = max(float(seconds), 0.0)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def render_top(
    paths: Sequence[str],
    now: Optional[float] = None,
    title: str = "campaign fleet",
) -> str:
    """Render heartbeat files as the ``repro top`` table."""
    now = time.time() if now is None else now
    rows: List[Dict[str, object]] = []
    for path in paths:
        beat = read_heartbeat(path)
        if beat is None:
            rows.append(
                {
                    "campaign": os.path.basename(path),
                    "progress": "(no heartbeat)",
                    "races": "-",
                    "executions": "-",
                    "rate/s": "-",
                    "eta": "-",
                    "age": "-",
                }
            )
            continue
        done = int(beat.get("done", 0))
        total = int(beat.get("total", 0))
        fraction = f" ({done / total:.0%})" if total else ""
        age = max(now - float(beat.get("updated_unix", now)), 0.0)
        rows.append(
            {
                "campaign": str(beat.get("label", os.path.basename(path))),
                "progress": f"{done}/{total}{fraction}",
                "races": beat.get("races", 0),
                "executions": beat.get("executions", 0),
                "rate/s": f"{float(beat.get('rate_per_second', 0.0)):.2f}",
                "eta": _format_eta(beat.get("eta_seconds")),
                "age": f"{age:.0f}s",
            }
        )
    return format_table(rows, title=title)


def render_fleet_top(
    directory: str,
    now: Optional[float] = None,
    title: str = "fleet",
) -> str:
    """Render a fleet heartbeat directory: one coordinator row plus one
    row per worker (current job, lease age, attempt), for ``repro top
    --fleet DIR`` and ``repro fleet status``.

    The coordinator's heartbeat carries the lease table (job id, attempt,
    lease age per worker); each worker's own heartbeat proves liveness
    (the ``age`` column) and names the job it believes it is running.
    """
    now = time.time() if now is None else now
    coordinator = read_heartbeat(os.path.join(directory, "coordinator.json"))
    rows: List[Dict[str, object]] = []
    leases: Dict[str, Dict[str, object]] = {}
    if coordinator is None:
        rows.append(
            {
                "role": "coordinator",
                "campaign": "(no heartbeat)",
                "progress": "-",
                "job": "-",
                "attempt": "-",
                "lease age": "-",
                "age": "-",
            }
        )
    else:
        leases = coordinator.get("leases") or {}
        done = int(coordinator.get("done", 0))
        total = int(coordinator.get("total", 0))
        fraction = f" ({done / total:.0%})" if total else ""
        age = max(now - float(coordinator.get("updated_unix", now)), 0.0)
        rows.append(
            {
                "role": "coordinator",
                "campaign": str(coordinator.get("label", "?")),
                "progress": f"{done}/{total}{fraction}",
                "job": f"pending {coordinator.get('pending', 0)}",
                "attempt": f"reassigned {coordinator.get('reassignments', 0)}",
                "lease age": "-",
                "age": f"{age:.0f}s",
            }
        )
    worker_files = sorted(
        name
        for name in (os.listdir(directory) if os.path.isdir(directory) else [])
        if name.startswith("worker-") and name.endswith(".json")
    )
    for name in worker_files:
        beat = read_heartbeat(os.path.join(directory, name))
        if beat is None:
            continue
        worker = beat.get("worker")
        lease = leases.get(f"w{worker}") or {}
        job = beat.get("job")
        kind = beat.get("kind")
        cti = beat.get("cti")
        job_text = f"{kind}:{job} (cti {cti})" if job is not None else "idle"
        age = max(now - float(beat.get("updated_unix", now)), 0.0)
        rows.append(
            {
                "role": f"worker {worker}",
                "campaign": str(beat.get("label", name)),
                "progress": f"{int(beat.get('done', 0))} jobs",
                "job": job_text,
                "attempt": beat.get("attempt", lease.get("attempt", "-")),
                "lease age": (
                    f"{float(lease.get('age_seconds', 0.0)):.1f}s"
                    if lease
                    else "-"
                ),
                "age": f"{age:.0f}s",
            }
        )
    return format_table(rows, title=title)


def render_learn_top(
    directory: str,
    now: Optional[float] = None,
    title: str = "continuous learning",
) -> str:
    """Render the learn worker's status heartbeat (``learn run --dir``)
    for ``repro top --learn DIR`` and ``repro learn status``."""
    now = time.time() if now is None else now
    beat = read_heartbeat(os.path.join(directory, "learn.json"))
    if beat is None:
        rows = [
            {
                "stage": "(no status)",
                "cycle": "-",
                "candidate": "-",
                "labels": "-",
                "active": "-",
                "age": "-",
            }
        ]
        return format_table(rows, title=title)
    age = max(now - float(beat.get("updated_unix", now)), 0.0)
    rows = [
        {
            "stage": str(beat.get("stage", "?")),
            "cycle": beat.get("cycle") if beat.get("cycle") is not None else "-",
            "candidate": str(beat.get("candidate", "-")),
            "labels": beat.get("total_labels", 0),
            "active": str(beat.get("active_version", "-")),
            "age": f"{age:.0f}s",
        }
    ]
    return format_table(rows, title=title)


# -- serve status --watch -----------------------------------------------------


def render_serve_watch(
    current: Tuple[Dict[str, object], Dict[str, object]],
    previous: Optional[Tuple[Dict[str, object], Dict[str, object]]] = None,
    elapsed: Optional[float] = None,
) -> str:
    """One refresh line of the live serve view.

    ``current``/``previous`` are ``(status, snapshot)`` pairs from the
    server's ``status`` and ``metrics`` ops. qps comes from the request
    delta over ``elapsed`` (falling back to lifetime average over
    uptime); latency percentiles from the cumulative
    ``serve.request.seconds`` histogram.
    """
    status, snapshot = current
    requests = int(status.get("requests", 0))
    uptime = float(status.get("uptime_seconds", 0.0) or 0.0)
    if previous is not None and elapsed:
        qps = max(requests - int(previous[0].get("requests", 0)), 0) / elapsed
    elif uptime > 0:
        qps = requests / uptime
    else:
        qps = 0.0
    histograms = snapshot.get("histograms") or {}
    latency = histograms.get("serve.request.seconds") or {}
    cache = status.get("cache") or {}
    return (
        f"qps {qps:6.1f} | "
        f"p50 {float(latency.get('p50', 0.0)) * 1000:7.2f} ms | "
        f"p99 {float(latency.get('p99', 0.0)) * 1000:7.2f} ms | "
        f"cache hit {float(cache.get('hit_rate', 0.0)):6.1%} | "
        f"model {status.get('model_name', '?')} {status.get('version', '?')} | "
        f"requests {requests}"
    )
