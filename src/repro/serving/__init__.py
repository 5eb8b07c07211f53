"""Serving: the async batching front door and the multi-core shard pool.

This package turns the repo's batched machine (:mod:`repro.compiler.batch`,
PR 4) into something a traffic-facing service can sit behind:

* :class:`Server` (:mod:`repro.serving.scheduler`) — an asyncio request
  scheduler.  ``await server.submit(fn, value)`` queues the request; a
  work-conserving drainer per program takes whatever is queued (up to
  ``max_batch``) into one ``run_batch`` machine run as soon as the previous
  one has finished — a lone request runs at once, and batch size follows
  load by itself.  Bounded queues give backpressure,
  ``return_exceptions=True`` gives per-request trap isolation, and
  :class:`ServerMetrics` exposes queue depth, the batch-size histogram,
  p50/p99 latency and requests/sec.

* :class:`ShardExecutor` (:mod:`repro.serving.shard`) — a persistent
  ``multiprocessing`` worker pool.  Batches are split along the batch axis
  into contiguous spans, each span runs its own batched machine on its own
  core, results reassemble order-preserving, and trap indices are re-based
  to the global batch — the Brent ``O(T' + W'/p)`` work-sharing made real
  instead of simulated.  The batch is encoded once into its flat ``int64``
  vectors, each span's slices of them ship as pickle-5 out-of-band frames
  (:mod:`repro.serving.transport`, the one wire format), and results return
  the same way.  :meth:`ShardExecutor.warm` pre-loads worker caches from the compile
  cache and :meth:`ShardExecutor.respawn_dead` is the pool's health check.

* :class:`SLOConfig` / :class:`LaneController` (:mod:`repro.serving.slo`) —
  admission control.  Given a ``target_p99_ms``, each program lane fits
  ``wall ~ a + b * sum(request_size)`` over the batches it has already
  timed (the ``alpha*T'`` and ``beta*W'`` terms of the paper's cost model)
  and prices every arrival with it, rejecting (:class:`AdmissionRejected`)
  or lane-isolating requests predicted to blow the SLO.

``Server`` and ``ShardExecutor`` are independent: a server runs every batch
in-process on its executor threads, and a sharded batch is a
``prog.run_batch(values, executor=pool)`` call.  There is one process level
because a second (servers over pools behind a consistent-hash router) never
beat a single ``Server`` on the benchmark.  Both warm from the
content-addressed compile cache (:mod:`repro.cache`) when one is
configured: the server compiles through it, and shard workers read
artifacts from it instead of being shipped pickled programs.

The ``serving.*`` per-layer metrics of ``bench/`` (see ``bench/README.md``)
measure the layers; the differential fuzz battery
(``tests/test_fuzz_differential.py``) pins interpreter == compiled ==
batched == sharded across random programs.
"""

from .metrics import ServerMetrics
from .scheduler import Server, ServerClosed, ServerOverloaded
from .shard import ShardExecutor, ShardExecutorClosed
from .slo import AdmissionRejected, LaneController, SLOConfig

__all__ = [
    "AdmissionRejected",
    "LaneController",
    "SLOConfig",
    "Server",
    "ServerClosed",
    "ServerMetrics",
    "ServerOverloaded",
    "ShardExecutor",
    "ShardExecutorClosed",
]
