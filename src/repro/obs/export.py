"""Metrics exposition: Prometheus text format + cross-worker aggregation.

Two consumers share this module:

* :meth:`repro.serving.Server.metrics_endpoint` renders the server's
  :class:`~repro.serving.metrics.ServerMetrics` snapshot as JSON or as the
  Prometheus text exposition format (version 0.0.4 — ``# HELP`` / ``# TYPE``
  headers, ``_total``-suffixed counters, cumulative ``le`` histogram
  buckets, escaped label values);
* :meth:`repro.serving.ShardExecutor.metrics_snapshot` aggregates its
  per-worker parent-side stats through :func:`aggregate_worker_metrics`
  into one snapshot, which :func:`render_shard_prometheus` renders with a
  ``worker`` label per series.

Everything here operates on plain dicts — no serving imports — so the
renderer is usable on any snapshot-shaped data and stays cycle-free.
"""

from __future__ import annotations

from typing import Optional

#: ServerMetrics snapshot keys that are monotone counters (rendered with the
#: Prometheus ``_total`` suffix) and their HELP text
_COUNTERS = {
    "submitted": "Requests accepted into a queue",
    "completed": "Requests completed with a value",
    "failed": "Requests completed with an exception (their own trap)",
    "rejected": "Requests refused by backpressure (bounded queue full)",
    "batches": "Batches executed",
    "admission_rejected": "Requests refused by SLO admission control (predicted too expensive)",
    "admission_isolated": "Requests routed to an isolation lane by SLO admission control",
}

#: snapshot keys that are point-in-time gauges
_GAUGES = {
    "queue_depth": "Queued-but-not-yet-executing requests",
    "mean_batch_size": "Finished requests per executed batch",
    "p50_latency_s": "Median request latency over the sliding window (seconds)",
    "p99_latency_s": "99th-percentile request latency over the sliding window (seconds)",
    "requests_per_sec": "Finished requests per second over the recent rate window",
    "lifetime_requests_per_sec": "Finished requests per second of server lifetime",
}


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format (backslash, quote, LF)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _labels(labels: Optional[dict]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _num(value) -> str:
    # integers render without a trailing .0 so counter samples stay exact
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(
    snapshot: dict, prefix: str = "repro_server", labels: Optional[dict] = None
) -> str:
    """Render a :meth:`ServerMetrics.snapshot` dict as Prometheus text.

    Counters get the ``_total`` suffix, gauges render as-is, and the batch
    size histogram becomes a cumulative-``le`` Prometheus histogram
    (``_bucket``/``_sum``/``_count``).  ``None``-valued gauges (e.g. the
    percentiles before any completion) are omitted entirely.  Unknown
    snapshot keys are ignored, so snapshot growth never breaks scrapes.
    """
    lab = _labels(labels)
    lines: list[str] = []
    for key, help_text in _COUNTERS.items():
        if key not in snapshot:
            continue
        name = f"{prefix}_{key}_total"
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{lab} {_num(snapshot[key])}")
    for key, help_text in _GAUGES.items():
        if snapshot.get(key) is None:
            continue
        name = f"{prefix}_{key}"
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{lab} {_num(snapshot[key])}")
    hist = snapshot.get("batch_size_hist")
    if hist is not None:
        name = f"{prefix}_batch_size"
        lines.append(f"# HELP {name} Executed batch sizes")
        lines.append(f"# TYPE {name} histogram")
        total = 0
        weighted = 0
        for size in sorted(int(s) for s in hist):
            count = hist[size] if size in hist else hist[str(size)]
            total += count
            weighted += size * count
            bucket_labels = dict(labels or {})
            bucket_labels["le"] = size
            lines.append(f"{name}_bucket{_labels(bucket_labels)} {total}")
        inf_labels = dict(labels or {})
        inf_labels["le"] = "+Inf"
        lines.append(f"{name}_bucket{_labels(inf_labels)} {total}")
        lines.append(f"{name}_sum{lab} {weighted}")
        lines.append(f"{name}_count{lab} {total}")
    return "\n".join(lines) + "\n"


def aggregate_worker_metrics(workers: list[dict]) -> dict:
    """Fold per-worker stat dicts into one totals dict.

    Numeric fields sum; ``alive`` counts live workers; the ``worker`` index
    is dropped.  Works on any homogeneous list of flat stat dicts.
    """
    agg: dict = {"workers": len(workers), "alive": 0}
    for w in workers:
        if w.get("alive"):
            agg["alive"] += 1
        for key, value in w.items():
            if key in ("worker", "alive") or not isinstance(value, (int, float)):
                continue
            agg[key] = agg.get(key, 0) + value
    if "busy_s" in agg:
        agg["busy_s"] = round(agg["busy_s"], 6)
    return agg


def render_shard_prometheus(shard_snapshot: dict, prefix: str = "repro_shard") -> str:
    """Render a :meth:`ShardExecutor.metrics_snapshot` as Prometheus text.

    Per-worker counters carry a ``worker`` label; the aggregate liveness
    renders as two gauges.
    """
    agg = shard_snapshot.get("aggregate", {})
    lines = [
        f"# HELP {prefix}_workers Configured shard worker processes",
        f"# TYPE {prefix}_workers gauge",
        f"{prefix}_workers {_num(agg.get('workers', 0))}",
        f"# HELP {prefix}_workers_alive Shard worker processes currently alive",
        f"# TYPE {prefix}_workers_alive gauge",
        f"{prefix}_workers_alive {_num(agg.get('alive', 0))}",
    ]
    per_worker_counters = {
        "spans": "Shard spans completed by the worker",
        "items": "Batch items executed by the worker",
        "errors": "Worker-side infrastructure errors (span recomputed in-parent)",
        "need_prog": "Program re-ships after worker-side cache eviction",
        "cache_warm": "Cold dispatches the worker served from the compile cache",
        "warm_loads": "Programs pre-loaded into the worker by cache warm-up",
        "respawns": "Times the worker process was respawned after dying",
        "fallback_spans": "Spans recomputed in-parent after a worker death or error",
        "bytes_shipped": "Out-of-band frame bytes sent to the worker plus received from it",
    }
    workers = shard_snapshot.get("workers", [])
    for key, help_text in per_worker_counters.items():
        name = f"{prefix}_{key}_total"
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} counter")
        for w in workers:
            lines.append(
                f"{name}{_labels({'worker': w.get('worker')})} {_num(w.get(key, 0))}"
            )
    name = f"{prefix}_busy_seconds_total"
    lines.append(f"# HELP {name} Wall seconds spent between span dispatch and collection")
    lines.append(f"# TYPE {name} counter")
    for w in workers:
        lines.append(
            f"{name}{_labels({'worker': w.get('worker')})} {_num(w.get('busy_s', 0.0))}"
        )
    return "\n".join(lines) + "\n"


#: CompileCache snapshot keys that are monotone counters, with HELP text
_CACHE_COUNTERS = {
    "hits": "Compile-cache hits (memo + disk)",
    "memo_hits": "Compile-cache hits served by the in-process memo",
    "disk_hits": "Compile-cache hits served by the on-disk store",
    "misses": "Compile-cache misses (program was compiled)",
    "stores": "Artifacts written (or refreshed) in the compile cache",
    "evictions": "Artifacts evicted by the LRU size bound",
    "corrupt": "Artifacts quarantined after failing envelope validation",
}

#: CompileCache snapshot keys that are point-in-time gauges
_CACHE_GAUGES = {
    "memo_entries": "Programs held by the in-process memo",
    "disk_entries": "Artifacts currently in the on-disk store",
    "disk_bytes": "Bytes currently in the on-disk store",
    "max_bytes": "Configured LRU size bound of the on-disk store",
}


def render_cache_prometheus(
    cache_snapshot: dict, prefix: str = "repro_cache", labels: Optional[dict] = None
) -> str:
    """Render a :meth:`repro.cache.CompileCache.snapshot` as Prometheus text."""
    lab = _labels(labels)
    lines: list[str] = []
    for key, help_text in _CACHE_COUNTERS.items():
        if key not in cache_snapshot:
            continue
        name = f"{prefix}_{key}_total"
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{lab} {_num(cache_snapshot[key])}")
    for key, help_text in _CACHE_GAUGES.items():
        if cache_snapshot.get(key) is None:
            continue
        name = f"{prefix}_{key}"
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{lab} {_num(cache_snapshot[key])}")
    return "\n".join(lines) + "\n"
