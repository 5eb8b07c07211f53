"""The asyncio front door: work-conserving micro-batching over ``run_batch``.

The paper's point — batching is one more segment level — makes the *machine*
side of serving trivial, and the scheduler that forms those batches needs no
policy either.  :class:`Server` is a work-conserving lane per program:

* requests to the same program queue in a per-program *lane* (a bounded
  ``asyncio.Queue`` — the bound is the backpressure surface);
* a drainer task per lane awaits the first request, takes whatever else is
  queued (up to ``max_batch``) and dispatches it as **one** ``run_batch``
  call — it never waits for company, so a lone request runs at once;
* the machine run happens on an executor thread, so the event loop keeps
  accepting requests while a batch executes — the next batch forms during
  the current one, and batch size follows load by itself;
* batches at or above ``shard_threshold`` are routed to a
  :class:`~repro.serving.shard.ShardExecutor` when one is attached, spreading
  the batch across cores;
* every batch runs with ``return_exceptions=True``: a trapping request
  resolves *its* future with :class:`~repro.compiler.batch.BatchError` while
  every sibling gets its exact value (per-request trap isolation).

Quickstart::

    server = Server(max_batch=64)
    async with server:
        results = await asyncio.gather(
            *(server.submit(fn, v) for v in requests)
        )
    print(server.metrics.snapshot())
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Optional, Union

from ..cache.store import ENV_DEFAULT, resolve_cache
from ..compiler import CompiledProgram, compile_nsc
from ..nsc import ast as A
from ..obs.export import (
    render_cache_prometheus,
    render_prometheus,
    render_shard_prometheus,
)
from ..obs.trace import Trace, activate
from ..obs.trace import current as current_trace
from .metrics import ServerMetrics
from .shard import ShardExecutor
from .slo import AdmissionRejected, LaneController, SLOConfig, request_size


class ServerClosed(RuntimeError):
    """The server is closed (or closing); the request was not accepted."""


class ServerOverloaded(RuntimeError):
    """Backpressure: the program's request queue is at ``max_queue``."""


class _Lane:
    """One compiled program's queue plus its drainer task."""

    __slots__ = ("prog", "queue", "drainer", "busy", "ctrl")

    def __init__(self, prog: CompiledProgram, max_queue: int) -> None:
        self.prog = prog
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=max_queue)
        self.drainer: Optional[asyncio.Task] = None
        #: True from the moment the drainer takes requests off the queue
        #: until their batch has delivered.  A lane that is not busy holds
        #: no request outside its queue: its drainer can be cancelled (on
        #: close, on eviction) without losing work.
        self.busy = False
        #: the lane's admission controller (None without an SLO, and always
        #: None on isolation lanes — an isolated outlier must not move the
        #: cost model its siblings are priced by)
        self.ctrl: Optional[LaneController] = None


class Server:
    """Async request scheduler with work-conserving micro-batching.

    Knobs:

    ``max_batch``
        Largest batch one machine run serves; a longer backlog is split.
    ``max_queue``
        Per-program queue bound.  :meth:`submit` awaits a slot (natural
        backpressure); :meth:`try_submit` raises :class:`ServerOverloaded`
        instead of waiting.
    ``executor`` / ``shards`` / ``shard_threshold``
        When an :class:`~repro.serving.shard.ShardExecutor` is attached,
        batches of at least ``shard_threshold`` requests are split into
        ``shards`` spans (default: one per worker) and executed across
        cores.  ``shard_threshold`` defaults to ``max_batch`` (every full
        batch shards); an explicit threshold above ``max_batch`` is
        rejected — the scheduler never forms a batch that large, so the
        executor would silently go unused.
    ``worker_threads``
        Executor threads running the (GIL-releasing NumPy) machine calls;
        more than one only helps when several lanes are active.
    ``cache``
        The compile cache (:mod:`repro.cache`) server-side compiles go
        through.  Defaults to the ``REPRO_CACHE_DIR`` environment variable
        (unset = no cache); pass a :class:`~repro.cache.CompileCache`
        explicitly, or ``None``/``False`` to disable.  A warm cache makes a
        server restart skip every compile.
    ``slo``
        An :class:`~repro.serving.slo.SLOConfig` turns on admission
        control: each lane fits a live cost model over its own batches and
        rejects (:class:`~repro.serving.slo.AdmissionRejected`) or
        lane-isolates requests whose predicted cost would blow the SLO.
    """

    def __init__(
        self,
        *,
        max_batch: int = 64,
        max_queue: int = 1024,
        executor: Optional[ShardExecutor] = None,
        shards: Optional[int] = None,
        shard_threshold: Optional[int] = None,
        worker_threads: int = 1,
        max_steps: int = 10_000_000,
        max_programs: int = 64,
        backend: Optional[str] = None,
        tracer: Optional[Trace] = None,
        cache: object = ENV_DEFAULT,
        slo: Optional[SLOConfig] = None,
    ) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_queue <= 0:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        if shard_threshold is None:
            shard_threshold = max_batch
        elif executor is not None and shard_threshold > max_batch:
            raise ValueError(
                f"shard_threshold {shard_threshold} exceeds max_batch "
                f"{max_batch}: no batch would ever reach the shard executor"
            )
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.executor = executor
        self.shards = shards
        self.shard_threshold = shard_threshold
        self.max_steps = max_steps
        #: untraced backend every batch dispatches with (None: each
        #: program's own field / the environment decide); functions compiled
        #: by the server inherit it as their program-level pin
        self.backend = backend
        #: soft bound on live per-program state (lanes + compile cache):
        #: above it, idle lanes are evicted LRU and the compile cache drops
        #: old entries.  Soft — lanes with queued or executing
        #: requests are never evicted, so a burst over `max_programs`
        #: concurrently-active programs grows past the bound rather than
        #: failing requests.
        self.max_programs = max_programs
        #: explicit span tracer for the serving path (``repro.obs.trace``).
        #: ``None`` falls back to the ambient trace active when a batch
        #: dispatches; an explicit tracer is more robust because drainer
        #: tasks and executor threads do not reliably inherit the
        #: submitter's contextvars.
        self.tracer = tracer
        #: the compile cache functions are compiled through (resolved once:
        #: ``REPRO_CACHE_DIR`` by default, an explicit CompileCache, or
        #: ``None``/``False`` for no caching); also surfaced by
        #: :meth:`metrics_endpoint`
        self._cache = resolve_cache(cache)
        #: the serving SLO (see :class:`repro.serving.slo.SLOConfig`);
        #: ``None`` admits every request
        self.slo = slo
        self.metrics = ServerMetrics()
        self._lanes: OrderedDict[int, _Lane] = OrderedDict()
        self._pool = ThreadPoolExecutor(
            max_workers=worker_threads, thread_name_prefix="repro-serve"
        )
        self._closed = False
        self._compiled: OrderedDict[int, tuple[object, CompiledProgram]] = OrderedDict()

    # -- program resolution --------------------------------------------------

    def _resolve(self, fn: Union[CompiledProgram, A.Function]) -> CompiledProgram:
        """Accept a CompiledProgram directly or compile (and cache) an NSC fn."""
        if isinstance(fn, CompiledProgram):
            return fn
        key = id(fn)
        entry = self._compiled.get(key)
        if entry is None or entry[0] is not fn:
            entry = (fn, compile_nsc(fn, backend=self.backend, cache=self._cache))
            self._compiled[key] = entry
            while len(self._compiled) > self.max_programs:
                self._compiled.popitem(last=False)  # harmless: recompiles
        else:
            self._compiled.move_to_end(key)
        return entry[1]

    def _evict_idle_lanes(self) -> None:
        """Drop LRU lanes that are provably at rest (see ``_Lane.busy``).

        Safe because eviction and ``submit`` both run on the event-loop
        thread: a lane with an empty queue that is not busy holds nothing,
        so cancelling its drainer fails no request.  ``submit`` has no await
        point between looking a lane up and enqueueing into it on the
        non-full path, so such a lane cannot be receiving a request
        concurrently.
        """
        for key, cand in list(self._lanes.items()):
            if len(self._lanes) < self.max_programs:
                break
            if cand.queue.empty() and not cand.busy:
                if cand.drainer is not None:
                    cand.drainer.cancel()
                del self._lanes[key]

    def _lane(self, prog: CompiledProgram, isolated: bool = False) -> _Lane:
        key: object = ("iso", id(prog)) if isolated else id(prog)
        lane = self._lanes.get(key)
        if lane is None or lane.prog is not prog:
            if len(self._lanes) >= self.max_programs:
                self._evict_idle_lanes()
            lane = _Lane(prog, self.max_queue)
            if self.slo is not None and not isolated:
                lane.ctrl = LaneController(self.slo)
            lane.drainer = asyncio.get_running_loop().create_task(
                self._drain(lane), name=f"repro-serve-drain-{id(prog):x}"
            )
            self._lanes[key] = lane
        else:
            self._lanes.move_to_end(key)
        return lane

    def _route(
        self, fn: Union[CompiledProgram, A.Function], value: object
    ) -> tuple[_Lane, float]:
        """Resolve the request's lane and size, applying SLO admission control.

        A predicted-expensive request either raises
        :class:`~repro.serving.slo.AdmissionRejected` (``mode="reject"``) or
        is diverted to the program's *isolation lane* (``mode="isolate"``) —
        a separate queue and drainer, so ordinary requests never share a
        batch (and therefore a ``T' = max``) with the outlier.  The size is
        taken once, here, and rides the queue entry to the lane's fit; with
        no SLO nothing reads it and it is not computed.
        """
        prog = self._resolve(fn)
        lane = self._lane(prog)
        size = 0.0
        if lane.ctrl is not None:
            size = request_size(value)
            verdict = lane.ctrl.classify(size)
            if verdict == "reject":
                self.metrics.admission_rejected += 1
                pred = lane.ctrl.predict_request_s(size)
                raise AdmissionRejected(
                    f"predicted request wall {pred * 1000.0:.3f}ms would blow the "
                    f"{self.slo.target_p99_ms}ms p99 target"
                )
            if verdict == "isolate":
                self.metrics.admission_isolated += 1
                lane = self._lane(prog, isolated=True)
        return lane, size

    # -- submission ----------------------------------------------------------

    async def submit(self, fn: Union[CompiledProgram, A.Function], value: object):
        """Submit one request; completes with its result value.

        Awaiting the returned coroutine yields the request's result exactly
        as ``prog.run(value)`` would produce it; a trapping request raises
        its own :class:`~repro.compiler.batch.BatchError` here without
        affecting any co-batched sibling.  When the lane queue is full this
        *waits* for a slot — backpressure propagates to the caller's rate.
        """
        if self._closed:
            raise ServerClosed("server is closed")
        lane, size = self._route(fn, value)
        fut = asyncio.get_running_loop().create_future()
        await lane.queue.put((value, fut, time.perf_counter(), size))
        if self._closed:
            # the server closed while we waited for a queue slot: close()
            # may already have drained the queue, so nobody would ever
            # resolve this future
            fut.cancel()
            raise ServerClosed("server closed while the request waited for a slot")
        self.metrics.submitted += 1
        self.metrics.queue_depth = self._depth()
        return await fut

    def try_submit(
        self, fn: Union[CompiledProgram, A.Function], value: object
    ) -> asyncio.Future:
        """Non-waiting submit: returns the request future, or raises
        :class:`ServerOverloaded` immediately when the queue is full."""
        if self._closed:
            raise ServerClosed("server is closed")
        lane, size = self._route(fn, value)
        fut = asyncio.get_running_loop().create_future()
        try:
            lane.queue.put_nowait((value, fut, time.perf_counter(), size))
        except asyncio.QueueFull:
            self.metrics.rejected += 1
            # refresh the gauge on the reject path too: the failed put
            # changed nothing, but the last published value may predate
            # batches that have since drained
            self.metrics.queue_depth = self._depth()
            raise ServerOverloaded(
                f"queue full ({self.max_queue} requests waiting for this program)"
            ) from None
        self.metrics.submitted += 1
        self.metrics.queue_depth = self._depth()
        return fut

    def _depth(self) -> int:
        return sum(lane.queue.qsize() for lane in self._lanes.values())

    # -- the scheduler core --------------------------------------------------

    async def _drain(self, lane: _Lane) -> None:
        """Await a request, take what else is queued, run it; until closed.

        The loop comes back to the queue once the batch has finished, so
        whatever arrived meanwhile is the next batch: its size follows load,
        a lone request runs at once.  Nothing between the ``get`` and the
        dispatch awaits, so a cancel never lands with a request in hand.
        """
        q = lane.queue
        while not self._closed:
            batch = [await q.get()]  # block until there is work
            lane.busy = True
            while len(batch) < self.max_batch:
                try:
                    batch.append(q.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.metrics.queue_depth = self._depth()
            await self._execute(lane, batch)
            lane.busy = False

    async def _execute(self, lane: _Lane, batch: list) -> None:
        values = [value for value, _, _, _ in batch]
        prog = lane.prog
        tracer = self.tracer if self.tracer is not None else current_trace()
        t_dispatch = time.perf_counter()
        if tracer is not None:
            # enqueue -> batch-form wait, one event per co-batched request
            for _, _, t_submit, _ in batch:
                tracer.add_complete(
                    "serve/queued", t_submit, t_dispatch - t_submit, "serve"
                )

        if self.executor is not None and len(values) >= self.shard_threshold:
            run = partial(self.executor.run_batch, prog, shards=self.shards)
        else:
            run = prog.run_batch

        def work():
            # executor threads do not inherit the loop task's contextvars;
            # re-activate the tracer so batch/encode-execute-decode spans
            # (repro.compiler.batch) land in the same trace.  The wall the
            # admission fit learns from is taken here, on the thread, so it
            # never includes the wait for a thread another lane is using.
            t0 = time.perf_counter()
            with activate(tracer):
                results = run(
                    values,
                    max_steps=self.max_steps,
                    return_exceptions=True,
                    backend=self.backend,
                )
            return results, time.perf_counter() - t0

        try:
            results, run_s = await asyncio.get_running_loop().run_in_executor(
                self._pool, work
            )
        except asyncio.CancelledError:
            # the drainer was cancelled mid-batch (a loop torn down without
            # close(); close() itself waits): the thread finishes harmlessly,
            # but these callers must not hang on futures nobody will resolve
            err = ServerClosed("server closed while the batch was executing")
            for _, fut, _, _ in batch:
                if not fut.done():
                    fut.set_exception(err)
            raise
        except BaseException as e:  # infrastructure failure: fail the batch
            self.metrics.observe_batch(len(batch))
            now = time.perf_counter()
            for _, fut, t_submit, _ in batch:
                if not fut.done():
                    fut.set_exception(e)
                self.metrics.observe_request(now - t_submit, ok=False)
            return
        now = time.perf_counter()
        self.metrics.observe_batch(len(batch))
        if tracer is not None:
            tracer.add_complete(
                "serve/batch", t_dispatch, now - t_dispatch, "serve",
                {"batch": len(batch)},
            )
        for (_, fut, t_submit, _), res in zip(batch, results):
            ok = not isinstance(res, BaseException)
            if not fut.done():  # the caller may have been cancelled
                if ok:
                    fut.set_result(res)
                else:
                    fut.set_exception(res)
            self.metrics.observe_request(now - t_submit, ok=ok)
            if tracer is not None:
                tracer.add_complete(
                    "serve/request", t_submit, now - t_submit, "serve", {"ok": ok}
                )
        if lane.ctrl is not None and not any(isinstance(r, BaseException) for r in results):
            lane.ctrl.note_batch(len(batch), sum(size for _, _, _, size in batch), run_s)

    # -- observability --------------------------------------------------------

    async def metrics_endpoint(self, format: str = "json") -> tuple[str, str]:
        """One metrics scrape: returns ``(content_type, body)``.

        ``format="json"`` serves the :meth:`ServerMetrics.snapshot` dict
        (plus the shard executor's per-worker/aggregate snapshot when one is
        attached) as a JSON document; ``format="prometheus"`` (or
        ``"text"``) serves the text exposition format, ready to mount
        behind any HTTP framework's ``/metrics`` route::

            content_type, body = await server.metrics_endpoint("prometheus")
        """
        snap = self.metrics.snapshot()
        shard = (
            self.executor.metrics_snapshot() if self.executor is not None else None
        )
        cache = self._cache.snapshot() if self._cache is not None else None
        if format in ("prometheus", "text"):
            body = render_prometheus(snap)
            if shard is not None:
                body += render_shard_prometheus(shard)
            if cache is not None:
                body += render_cache_prometheus(cache)
            return "text/plain; version=0.0.4; charset=utf-8", body
        if format != "json":
            raise ValueError(f"unknown metrics format {format!r} (json/prometheus)")
        if shard is not None:
            snap["shard_executor"] = shard
        if cache is not None:
            snap["compile_cache"] = cache
        if self.slo is not None:
            snap["slo_lanes"] = [
                lane.ctrl.snapshot()
                for lane in self._lanes.values()
                if lane.ctrl is not None
            ]
        return "application/json", json.dumps(snap, sort_keys=True)

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        """Stop the drainers, fail queued requests, release the thread pool.

        A batch that is already executing completes normally — its drainer
        delivers the results, sees the server closed and returns; requests
        still queued fail with :class:`ServerClosed`.
        """
        if self._closed:
            return
        self._closed = True
        for lane in self._lanes.values():
            if not lane.busy:  # waiting for a request: holds none
                lane.drainer.cancel()
        for lane in self._lanes.values():
            try:
                await lane.drainer
            except asyncio.CancelledError:
                pass
        err = ServerClosed("server closed with the request still queued")
        for lane in self._lanes.values():
            while not lane.queue.empty():
                _, fut, _, _ = lane.queue.get_nowait()
                if not fut.done():
                    fut.set_exception(err)
        # the drain above emptied every queue without going through the
        # normal dispatch path; republish the gauge so it provably reads 0
        # after close() instead of freezing at its pre-close value
        self.metrics.queue_depth = self._depth()
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "Server":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
