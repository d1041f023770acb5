"""Run reports: turn a telemetry trace into stage-attributed tables.

Consumes the event stream produced by :class:`repro.obs.MetricsRegistry`
(live, via :class:`~repro.obs.MemorySink`, or reloaded from a JSON-lines
file) and renders:

- a **stage table** — wall-clock attributed to pipeline stages (the
  ``<stage>.`` prefix of each span name: corpus, dataset, pretrain,
  train, campaign, ...) with *exclusive* seconds, so a parent stage is
  not double-charged for time its children already account for;
- a **work table** — the final counter values (graphs labeled,
  predictions made, executions run/saved, ...);
- a **latency table** — histogram summaries (count/mean/p50/p90/p99);
- the **span timeline** (see :func:`repro.reporting.format_span_timeline`).

``repro report TRACE.jsonl`` is the CLI entry point; benches call
:func:`render_trace_report` directly on in-memory events.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.propagation import parse_span_ref
from repro.reporting import format_span_timeline, format_table

__all__ = [
    "collect_spans",
    "final_metrics",
    "stage_rows",
    "serve_rows",
    "merge_traces",
    "render_trace_report",
    "render_merged_report",
    "render_metrics_summary",
]

#: Canonical pipeline order for the stage table; unknown stages follow,
#: alphabetically, after these.
STAGE_ORDER = (
    "cli",
    "corpus",
    "dataset",
    "pretrain",
    "train",
    "adapt",
    "campaign",
    "execution",
)


def collect_spans(events: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """The ``span`` events of a trace, in ``seq`` order."""
    spans = [dict(event) for event in events if event.get("event") == "span"]
    spans.sort(key=lambda span: int(span.get("seq", 0)))
    return spans


def final_metrics(
    events: Sequence[Dict[str, object]]
) -> Optional[Dict[str, object]]:
    """The last ``metrics`` snapshot event of a trace, if any."""
    snapshot = None
    for event in events:
        if event.get("event") == "metrics":
            snapshot = event
    return snapshot


def _stage_of(name: str) -> str:
    return str(name).split(".", 1)[0]


def stage_rows(spans: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Aggregate spans into one row per pipeline stage.

    ``self s`` is exclusive time — each span's duration minus the
    durations of its direct children — so stages sum to (at most) the
    run's wall clock instead of multiply counting nested work.
    """
    child_seconds: Dict[int, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            child_seconds[int(parent)] = (
                child_seconds.get(int(parent), 0.0) + float(span.get("dur", 0.0))
            )
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        stage = _stage_of(span.get("name", "?"))
        duration = float(span.get("dur", 0.0))
        exclusive = max(
            duration - child_seconds.get(int(span.get("id", -1)), 0.0), 0.0
        )
        bucket = totals.setdefault(
            stage, {"spans": 0.0, "total": 0.0, "self": 0.0}
        )
        bucket["spans"] += 1
        bucket["total"] += duration
        bucket["self"] += exclusive
    self_sum = sum(bucket["self"] for bucket in totals.values()) or 1.0

    def order(stage: str) -> tuple:
        try:
            return (STAGE_ORDER.index(stage), stage)
        except ValueError:
            return (len(STAGE_ORDER), stage)

    return [
        {
            "stage": stage,
            "spans": int(bucket["spans"]),
            "total s": bucket["total"],
            "self s": bucket["self"],
            "share": f"{bucket['self'] / self_sum:.1%}",
        }
        for stage, bucket in sorted(totals.items(), key=lambda kv: order(kv[0]))
    ]


#: Request-path order for the serve attribution table.
SERVE_ORDER = (
    "serve.call",
    "serve.request",
    "serve.cache",
    "serve.compute",
)


def serve_rows(spans: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """One row per serve-path span name: where a served request's time
    goes (client call → server request → cache lookup → model compute)."""
    groups: Dict[str, Dict[str, object]] = {}
    for span in spans:
        name = str(span.get("name", ""))
        if not name.startswith("serve."):
            continue
        group = groups.setdefault(name, {"count": 0, "total": 0.0, "batch": []})
        group["count"] += 1
        group["total"] += float(span.get("dur", 0.0))
        attrs = span.get("attrs") or {}
        if "batch" in attrs:
            group["batch"].append(float(attrs["batch"]))

    def order(name: str) -> tuple:
        try:
            return (SERVE_ORDER.index(name), name)
        except ValueError:
            return (len(SERVE_ORDER), name)

    rows = []
    for name, group in sorted(groups.items(), key=lambda kv: order(kv[0])):
        count = int(group["count"])
        total = float(group["total"])
        batches = group["batch"]
        rows.append(
            {
                "span": name,
                "count": count,
                "total s": total,
                "mean ms": (total / count) * 1000.0 if count else 0.0,
                "mean batch": (
                    f"{sum(batches) / len(batches):.1f}" if batches else "-"
                ),
            }
        )
    return rows


def merge_traces(
    event_sets: Sequence[Sequence[Dict[str, object]]],
    labels: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Stitch per-process traces into one cross-process span forest.

    Each input is one file's events (client campaign, serve server, ...).
    Spans are re-numbered into a global id space; a root span whose
    ``remote`` field names a span in another file (the trace-context
    link written by :meth:`MetricsRegistry.remote_context`) is re-parented
    under it. Because every registry's clock starts at its own zero, each
    process is shifted onto the timeline of the processes it called into:
    the per-pair offset is the median of ``parent.start - child.start``
    over all resolved links, which cancels the unknown clock epoch while
    staying robust to per-request jitter.

    Returns ``{"spans", "metrics", "procs", "trace_ids", "links"}``:
    merged span dicts (global ``id``/``parent``/``depth``, aligned
    ``start``), the final metrics snapshot per process, the process
    names, the distinct trace ids seen, and how many cross-process links
    resolved.
    """
    per_span: List[Tuple[str, Dict[str, object]]] = []
    metrics: Dict[str, Dict[str, object]] = {}
    procs: List[str] = []
    for index, events in enumerate(event_sets):
        default_proc = (
            str(labels[index])
            if labels is not None and index < len(labels)
            else f"file{index}"
        )
        file_procs: List[str] = []
        for span in collect_spans(events):
            proc = str(span.get("proc") or default_proc)
            if proc not in file_procs:
                file_procs.append(proc)
            per_span.append((proc, span))
        if not file_procs:
            file_procs = [default_proc]
        for proc in file_procs:
            if proc not in procs:
                procs.append(proc)
        snapshot = final_metrics(events)
        if snapshot is not None:
            metrics[file_procs[0]] = snapshot

    id_map: Dict[Tuple[str, int], int] = {}
    new_ids: List[int] = []
    for new_id, (proc, span) in enumerate(per_span, start=1):
        # First occurrence wins for reference resolution; duplicates
        # (same-named processes) still get distinct merged ids.
        id_map.setdefault((proc, int(span.get("id", 0))), new_id)
        new_ids.append(new_id)

    # Parent resolution + cross-process link collection.
    links = 0
    pair_deltas: Dict[Tuple[str, str], List[float]] = {}
    resolved: List[Dict[str, object]] = []
    for (proc, span), new_id in zip(per_span, new_ids):
        parent = span.get("parent")
        if parent is not None:
            new_parent = id_map.get((proc, int(parent)))
        else:
            new_parent = None
            ref = parse_span_ref(span.get("remote") or "")
            if ref is not None:
                new_parent = id_map.get(ref)
                if new_parent is not None:
                    links += 1
                    parent_proc, parent_old = ref
                    parent_span = next(
                        s
                        for p, s in per_span
                        if p == parent_proc and int(s.get("id", 0)) == parent_old
                    )
                    pair_deltas.setdefault((proc, parent_proc), []).append(
                        float(parent_span.get("start", 0.0))
                        - float(span.get("start", 0.0))
                    )
        resolved.append(
            {
                "event": "span",
                "name": span.get("name", "?"),
                "id": new_id,
                "parent": new_parent,
                "depth": 0,  # recomputed below
                "start": float(span.get("start", 0.0)),
                "dur": float(span.get("dur", 0.0)),
                "attrs": span.get("attrs") or {},
                "proc": proc,
                "trace": span.get("trace"),
                "seq": span.get("seq", 0),
            }
        )

    # Per-process time-base alignment: anchor processes nobody links out
    # of at zero, then propagate median offsets along the link graph.
    offsets: Dict[str, Optional[float]] = {proc: None for proc in procs}
    child_procs = {pair[0] for pair in pair_deltas}
    for proc in procs:
        if proc not in child_procs:
            offsets[proc] = 0.0
    if procs and all(offset is None for offset in offsets.values()):
        offsets[procs[0]] = 0.0  # pure cycle: arbitrary anchor
    changed = True
    while changed:
        changed = False
        for (child, parent), deltas in pair_deltas.items():
            if offsets[child] is None and offsets.get(parent) is not None:
                offsets[child] = offsets[parent] + statistics.median(deltas)
                changed = True
    for span in resolved:
        offset = offsets.get(span["proc"]) or 0.0
        span["start"] = round(span["start"] + offset, 6)

    # Depth recomputation over the merged forest.
    by_id = {span["id"]: span for span in resolved}
    children: Dict[Optional[int], List[int]] = {}
    for span in resolved:
        children.setdefault(span["parent"], []).append(span["id"])
    frontier = list(children.get(None, []))
    while frontier:
        span_id = frontier.pop()
        span = by_id[span_id]
        parent = span["parent"]
        span["depth"] = by_id[parent]["depth"] + 1 if parent in by_id else 0
        frontier.extend(children.get(span_id, []))

    resolved.sort(key=lambda span: (span["start"], span["id"]))
    trace_ids = sorted(
        {str(span["trace"]) for span in resolved if span.get("trace")}
    )
    return {
        "spans": resolved,
        "metrics": metrics,
        "procs": procs,
        "trace_ids": trace_ids,
        "links": links,
    }


def render_merged_report(
    merged: Dict[str, object],
    title: str = "merged telemetry report",
    timeline_rows: int = 80,
) -> str:
    """The cross-process report for :func:`merge_traces` output."""
    spans: List[Dict[str, object]] = list(merged.get("spans") or [])
    procs = merged.get("procs") or []
    trace_ids = merged.get("trace_ids") or []
    sections: List[str] = [
        f"{title}\n"
        f"processes: {', '.join(procs) or '(none)'} | "
        f"trace ids: {', '.join(trace_ids) or '(none)'} | "
        f"cross-process links resolved: {merged.get('links', 0)}"
    ]
    if spans:
        sections.append(
            format_table(stage_rows(spans), title="stage breakdown (wall clock)")
        )
        serving = serve_rows(spans)
        if serving:
            sections.append(
                format_table(
                    serving, title="serve attribution", float_digits=4
                )
            )
    else:
        sections.append("stage breakdown: (no spans recorded)")
    for proc, snapshot in sorted((merged.get("metrics") or {}).items()):
        counter_rows = _counter_rows(snapshot)
        if counter_rows:
            sections.append(
                format_table(
                    counter_rows, title=f"work breakdown [{proc}]", float_digits=3
                )
            )
    timeline_spans = [
        dict(span, name=f"{span['proc']}:{span['name']}") for span in spans
    ]
    sections.append(format_span_timeline(timeline_spans, max_rows=timeline_rows))
    return "\n\n".join(sections)


def _counter_rows(snapshot: Dict[str, object]) -> List[Dict[str, object]]:
    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    rows = [
        {"metric": name, "kind": "counter", "value": value}
        for name, value in sorted(counters.items())
    ]
    rows.extend(
        {"metric": name, "kind": "gauge", "value": value}
        for name, value in sorted(gauges.items())
    )
    return rows


def _histogram_rows(snapshot: Dict[str, object]) -> List[Dict[str, object]]:
    histograms = snapshot.get("histograms") or {}
    return [
        {
            "histogram": name,
            "count": summary.get("count", 0),
            "mean s": summary.get("mean", 0.0),
            "p50 s": summary.get("p50", 0.0),
            "p90 s": summary.get("p90", 0.0),
            "p99 s": summary.get("p99", 0.0),
        }
        for name, summary in sorted(histograms.items())
    ]


def render_trace_report(
    events: Sequence[Dict[str, object]],
    title: str = "telemetry run report",
    timeline_rows: int = 60,
) -> str:
    """The full plain-text report for one trace's events."""
    spans = collect_spans(events)
    snapshot = final_metrics(events) or {}
    sections: List[str] = [title]
    if spans:
        sections.append(
            format_table(stage_rows(spans), title="stage breakdown (wall clock)")
        )
        serving = serve_rows(spans)
        if serving:
            sections.append(
                format_table(serving, title="serve attribution", float_digits=4)
            )
    else:
        sections.append("stage breakdown: (no spans recorded)")
    counter_rows = _counter_rows(snapshot)
    if counter_rows:
        sections.append(
            format_table(counter_rows, title="work breakdown", float_digits=3)
        )
    histogram_rows = _histogram_rows(snapshot)
    if histogram_rows:
        sections.append(
            format_table(histogram_rows, title="latency summaries", float_digits=4)
        )
    sections.append(format_span_timeline(spans, max_rows=timeline_rows))
    return "\n\n".join(sections)


def render_metrics_summary(
    snapshot: Dict[str, object], title: str = "telemetry metrics summary"
) -> str:
    """Tables for a live registry snapshot (the ``--metrics`` output)."""
    sections: List[str] = [title]
    span_stats = snapshot.get("spans") or {}
    if span_stats:
        rows = [
            {
                "span": name,
                "count": int(stats.get("count", 0)),
                "total s": stats.get("total", 0.0),
                "self s": stats.get("exclusive", 0.0),
            }
            for name, stats in sorted(span_stats.items())
        ]
        sections.append(format_table(rows, title="spans"))
    counter_rows = _counter_rows(snapshot)
    if counter_rows:
        sections.append(format_table(counter_rows, title="work breakdown"))
    histogram_rows = _histogram_rows(snapshot)
    if histogram_rows:
        sections.append(
            format_table(histogram_rows, title="latency summaries", float_digits=4)
        )
    if len(sections) == 1:
        sections.append("(no telemetry recorded)")
    return "\n\n".join(sections)
