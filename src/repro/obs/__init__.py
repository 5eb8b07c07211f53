"""Observability: pipeline tracing, per-block profiling, metrics export.

The system's five layers (NSC eval -> compiler passes -> backends -> batched
serving -> shards) report only totals; this package attributes them:

* :mod:`repro.obs.trace` — contextvar-scoped span tracer over the compile
  pipeline and the serving path, Chrome-trace JSON export
  (``Trace.export_chrome``), near-zero cost when disabled;
* :mod:`repro.obs.profile` — per-block execution profiler with **exact**
  ``T'``/``W'`` attribution (per-entry sums bit-identical to the machine
  totals), surfaced as ``CompiledProgram.profile(value)``;
* :mod:`repro.obs.export` — Prometheus text exposition for server metrics
  and cross-worker aggregation for the shard executor;
* :mod:`repro.obs.costcheck` — fits ``wall ~ alpha*T' + beta*W'`` over the
  profiled blocks, the predicted-vs-measured table the Brent-validation
  roadmap item needs.
"""

from .costcheck import CostReport, cost_check
from .export import (
    aggregate_worker_metrics,
    render_prometheus,
    render_shard_prometheus,
)
from .profile import BlockStat, ProfileReport, profile_run
from .trace import Trace, current, instant, span

__all__ = [
    "BlockStat",
    "CostReport",
    "ProfileReport",
    "Trace",
    "aggregate_worker_metrics",
    "cost_check",
    "current",
    "instant",
    "profile_run",
    "render_prometheus",
    "render_shard_prometheus",
    "span",
]
