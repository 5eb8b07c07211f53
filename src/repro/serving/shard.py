"""Multi-core shard execution: spread one large batch across worker processes.

``run_batch`` amortises Python dispatch over the batch, but one process is
still one core — at batch 512 the single machine run saturates it.  The
paper's Brent bound (``O(T' + W'/p)``, Proposition 3.2) says the work side
scales with processors, and the batch axis is the trivially safe place to
cut: requests are independent, so splitting the batch into contiguous spans
and running each span's batched machine on its own core changes nothing
about any request's semantics.

:class:`ShardExecutor` owns a pool of **persistent** worker processes.  Each
worker receives a program at most once, pickled without its run-time
caches (see ``CompiledProgram.__getstate__``), and keeps it in a bounded
per-worker cache.  A worker never compiles: the program it receives is the
one that runs every batch, and the worker derives only its ``fused`` plan
(the one untraced tier, so no choice of engine rides the message).

Spans travel in one wire format (:mod:`repro.serving.transport`): the parent
encodes the batch once into its canonical flat ``int64`` vectors — plain
Python requests go straight into them, directed by the program's input
type, with no S-object tree on the way in — and each span's slices of those
vectors cross the worker's queue as pickle-5 out-of-band frames; the worker
runs on read-only views of the frames it received.  Results return the same
way (the program's output registers), and the parent decodes them
exactly once.  A batch the parent cannot encode is the caller's error and
never reaches a worker: it is answered by in-process ``run_batch``, which
isolates the malformed request.

A dispatched span ends in exactly one of these ways:

=====================  ===================================================
worker reply           parent action
=====================  ===================================================
registers / values     span done (registers are decoded parent-side)
``need_prog``          worker LRU evicted the program: resent with the blob
error, torn result     span recomputed in-parent (``errors``)
worker dead            span recomputed in-parent, worker respawned
=====================  ===================================================

Semantics mirror :func:`repro.compiler.batch.run_batch` exactly:

* results are reassembled **order-preserving** (span order = batch order);
* a trapping input is attributed to its **global** batch index — a worker
  reports shard-local indices and the executor re-bases them by the span
  offset (:meth:`BatchError.rebased`);
* ``return_exceptions=True`` places each input's :class:`BatchError` in its
  own slot with every sibling — including siblings in *other* shards —
  computed exactly; with ``return_exceptions=False`` the error with the
  smallest global index is raised (the same first-failure rule as the
  single-process fallback loop);
* a worker that dies mid-task is detected, its spans are re-run in-process
  (correctness never depends on the pool), and a replacement worker is
  spawned for subsequent batches.  Every worker reports into its **own**
  result queue, so a worker killed mid-``put()`` — which leaves a partial
  frame its queue's reader would block on forever — poisons only a queue
  nobody will ever read again, never a shared feeder.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
import threading
import time
from collections import OrderedDict
from typing import Optional, Sequence

import multiprocessing as mp
from multiprocessing import connection as mp_connection

import numpy as np

from ..compiler.batch import (
    ENCODE_ERRORS,
    BatchError,
    run_batch_fields,
    split_shards,
)
from .transport import TRANSPORTS, pack_oob, unpack_oob

#: per-worker program cache bound — old entries are evicted LRU and
#: transparently re-shipped on the next miss (the "need_prog" reply)
_WORKER_CACHE_SIZE = 64

_STATUS_OK = "ok"
_STATUS_REGISTERS = "registers"
_STATUS_ERROR = "error"
_STATUS_NEED_PROG = "need_prog"


class ShardExecutorClosed(RuntimeError):
    """The executor was closed; no further batches can be dispatched."""


def _frame_bytes(frames: Sequence[bytes]) -> int:
    return sum(len(f) for f in frames)


def _worker_main(in_q, out_q) -> None:
    """Worker loop: cache programs by key, run batched spans, report results.

    Every shard runs with per-input isolation (``return_exceptions=True``
    semantics) so one trapping input cannot poison its shard siblings; the
    parent decides whether to raise.  A program arrives pickled and runs
    as it is: nothing here compiles, whatever this process's environment
    says.
    """
    cache: OrderedDict[int, object] = OrderedDict()
    while True:
        msg = in_q.get()
        if msg is None:
            return
        task_id, shard_idx, key, blob, payload, count, max_steps = msg
        try:
            prog = cache.get(key)
            if prog is None:
                if blob is None:
                    # evicted from this worker's cache: ask for the blob
                    out_q.put((task_id, shard_idx, _STATUS_NEED_PROG, None))
                    continue
                prog = cache[key] = pickle.loads(blob)
                while len(cache) > _WORKER_CACHE_SIZE:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(key)
            tag, res = run_batch_fields(prog, unpack_oob(*payload), count, max_steps=max_steps)
            if tag == "registers":
                # fast path: the output registers go back as frames — no
                # S-object was ever built on this side of the boundary
                out_q.put((task_id, shard_idx, _STATUS_REGISTERS, (*pack_oob(res), count)))
            else:
                # the batch degraded to the per-input fallback loop: results
                # are S-objects and in-slot BatchErrors — both pickle by
                # construction (Value.__reduce__ / BatchError.__reduce__)
                out_q.put((task_id, shard_idx, _STATUS_OK, res))
        except BaseException as e:  # noqa: BLE001 - must cross the process boundary
            # mp.Queue pickles in a background feeder thread, so put()
            # never raises on an unpicklable payload — it would be dropped
            # silently and the parent would wait forever.  Probe first.
            try:
                pickle.dumps(e)
            except Exception:
                e = RuntimeError(repr(e))
            out_q.put((task_id, shard_idx, _STATUS_ERROR, e))


class _Worker:
    """One persistent worker process plus the parent-side shipped-key view."""

    __slots__ = ("process", "in_q", "out_q", "shipped", "stats")

    def __init__(self) -> None:
        self.shipped: OrderedDict[int, None] = OrderedDict()
        self.in_q = None  # set by ShardExecutor._spawn
        self.out_q = None  # set by ShardExecutor._spawn (per-respawn queue)
        self.process = None  # set by ShardExecutor._spawn
        #: parent-side per-worker counters (the worker wire protocol carries
        #: no metrics): spans/items completed, infrastructure errors,
        #: program re-ships, respawns after death, spans recomputed
        #: in-parent, out-of-band frame bytes sent to the worker plus
        #: received from it, and busy seconds (span dispatch -> collection)
        self.stats = {
            "spans": 0,
            "items": 0,
            "errors": 0,
            "need_prog": 0,
            "respawns": 0,
            "fallback_spans": 0,
            "bytes_shipped": 0,
            "busy_s": 0.0,
        }

    def mark_shipped(self, key: int) -> None:
        self.shipped[key] = None
        self.shipped.move_to_end(key)
        # mirror the worker-side bound; divergence is harmless because a
        # worker-side miss replies "need_prog" and the parent resends
        while len(self.shipped) > _WORKER_CACHE_SIZE:
            self.shipped.popitem(last=False)


class _Span:
    """One dispatched span of a task, kept until its result is in."""

    __slots__ = ("worker", "chunk", "payload", "sent_at")

    def __init__(self, worker: _Worker, chunk: list, payload) -> None:
        self.worker = worker
        self.chunk = chunk  # the span's requests, for an in-parent recompute
        self.payload = payload  # (meta, frames), kept for a need_prog resend
        self.sent_at = time.perf_counter()


class _Task:
    """One batch in flight: its program, pending spans and finished results."""

    def __init__(self, prog, task_id: int, key, blob, max_steps) -> None:
        self.prog, self.id = prog, task_id
        self.key, self.blob = key, blob
        self.max_steps = max_steps
        self.pending: dict[int, _Span] = {}
        self.done: dict[int, list] = {}
        # workers whose blob resend is already in flight for this task: a
        # second need_prog from the same worker (a later span dispatched
        # before the blob arrived) must not re-count the miss or ship the
        # blob again — FIFO guarantees the earlier resend lands first
        self.resent: set[int] = set()

    def recompute(self, shard_idx: int) -> None:
        """Run a pending span in-process instead of on its worker."""
        span = self.pending[shard_idx]
        self.done[shard_idx] = self.prog.run_batch(
            span.chunk, max_steps=self.max_steps, return_exceptions=True
        )
        del self.pending[shard_idx]
        span.worker.stats["fallback_spans"] += 1


class ShardExecutor:
    """A persistent ``multiprocessing`` pool executing batch shards.

    ``n_workers`` defaults to one: on a 2-vCPU host two workers were no
    faster than one on any benchmark workload (rps ratio 0.74-1.03), the
    parent's encode/decode sharing the same cores.  More workers is the
    paper's ``W'/p`` split; ask for it where cores are free.  Workers start
    with ``fork`` where the platform has it (instant start; the plan caches
    and their locks are fork-safe, see ``repro.bvram.machine``), else with
    ``spawn``.  ``transport`` accepts only ``None`` or ``"oob"``, the one
    wire format (:mod:`repro.serving.transport`); it stays because the
    benchmark builds one executor per name in ``TRANSPORTS``.  Dispatch is
    serialised by an internal lock, so one executor may be shared by many
    threads (e.g. the server's executor threads).
    """

    def __init__(self, n_workers: int = 1, transport: Optional[str] = None) -> None:
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        if transport is not None and transport not in TRANSPORTS:
            raise ValueError(
                f"unknown shard transport {transport!r} (choose from {', '.join(TRANSPORTS)})"
            )
        self.n_workers = n_workers
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        #: ``None`` until :meth:`close`, then ``[]``: nothing can leak since
        #: spans carry no shared segments; kept for the benchmark, which reads it
        self.leaked_segments: Optional[list[str]] = None
        self._lock = threading.Lock()
        self._task_counter = 0
        self._closed = False
        #: recently dispatched programs: id(prog) -> (prog, wire key, pickled
        #: prog).  The strong ref pins id() while the entry
        #: lives; the *wire* key is a monotonic counter, never reused, so an
        #: evicted entry whose id() is later recycled by a new program can
        #: never alias a stale worker-cache slot.  LRU-bounded like the
        #: worker-side cache.
        self._programs: OrderedDict[int, tuple[object, int, bytes]] = OrderedDict()
        self._next_key = 0
        self._workers: list[_Worker] = []
        for _ in range(self.n_workers):
            w = _Worker()
            self._spawn(w)
            self._workers.append(w)

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        # Fresh queues per (re)spawn: a worker killed while blocked in
        # ``in_q.get()`` may die holding the queue's reader lock, and one
        # killed mid-``put()`` leaves a partial frame in its result queue
        # that any later read would block on forever.  Both queues die with
        # the worker; the replacement starts on clean pipes.
        if worker.out_q is not None:
            try:
                worker.out_q.close()  # parent never wrote to it: safe drop
            except Exception:
                pass
        worker.in_q = self._ctx.Queue()
        worker.out_q = self._ctx.Queue()
        worker.process = self._ctx.Process(
            target=_worker_main, args=(worker.in_q, worker.out_q), daemon=True
        )
        worker.process.start()
        worker.shipped.clear()

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            try:
                w.in_q.put(None)
            except Exception:
                pass
        for w in self._workers:
            w.process.join(timeout=5)
            if w.process.is_alive():
                w.process.terminate()
                w.process.join(timeout=5)
        self.leaked_segments = []

    def respawn_dead(self) -> int:
        """Proactively respawn any dead worker (the pool's health check).

        Dispatch already survives deaths reactively (spans are reclaimed
        in-parent); this removes the first-batch latency hit by rebuilding
        the pool *between* batches.  Returns the number respawned.
        """
        if self._closed:
            return 0
        with self._lock:
            dead = [w for w in self._workers if not w.process.is_alive()]
            for w in dead:
                w.stats["respawns"] += 1
                self._spawn(w)
            return len(dead)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- observability -------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Per-worker stats plus their fold into one aggregate dict.

        The counters are maintained parent-side at collection time (the
        worker wire protocol carries no metrics), so a snapshot is a plain
        read — safe to call from another thread while a batch is in flight;
        counters are monotone, a concurrent batch at worst under-reports.
        ``busy_s`` measures dispatch-to-collection wall time per span;
        spans on the same worker overlap when ``shards > n_workers``, so it
        is an upper bound on the worker's actual busy time.
        ``segments["bytes_shipped"]`` repeats the aggregate ``bytes_shipped``
        under the key the benchmark reads.
        """
        from ..obs.export import aggregate_worker_metrics

        workers = []
        for i, w in enumerate(self._workers):
            d: dict = {
                "worker": i,
                "alive": bool(w.process is not None and w.process.is_alive()),
            }
            d.update(w.stats)
            d["busy_s"] = round(d["busy_s"], 6)
            workers.append(d)
        aggregate = aggregate_worker_metrics(workers)
        return {
            "workers": workers,
            "aggregate": aggregate,
            "segments": {"bytes_shipped": aggregate["bytes_shipped"]},
        }

    # -- dispatch ------------------------------------------------------------

    def _blob_for(self, prog) -> tuple[int, bytes]:
        pid = id(prog)
        entry = self._programs.get(pid)
        if entry is None or entry[0] is not prog:
            self._next_key += 1
            # the worker runs exactly what it receives
            entry = (prog, self._next_key, pickle.dumps(prog, protocol=pickle.HIGHEST_PROTOCOL))
            self._programs[pid] = entry
            while len(self._programs) > _WORKER_CACHE_SIZE:
                self._programs.popitem(last=False)
        else:
            self._programs.move_to_end(pid)
        return entry[1], entry[2]

    def _send(self, task: _Task, shard_idx: int, span: _Span) -> None:
        """Dispatch one span to its worker, with the blob if its key is cold there."""
        worker = span.worker
        ship = None
        if task.key not in worker.shipped:
            ship = task.blob
            worker.mark_shipped(task.key)
        worker.stats["bytes_shipped"] += _frame_bytes(span.payload[1])
        worker.in_q.put(
            (task.id, shard_idx, task.key, ship, span.payload, len(span.chunk), task.max_steps)
        )

    def run_batch(
        self,
        prog,
        values: Sequence[object],
        shards: Optional[int] = None,
        max_steps: int = 10_000_000,
        return_exceptions: bool = False,
    ) -> list:
        """Run ``prog`` over ``values`` split into ``shards`` worker spans.

        See the module docstring for the exact semantics; ``shards``
        defaults to the worker count.  More shards than workers is allowed
        (spans round-robin onto workers and each worker drains its spans in
        order) — useful for tests and for bounding per-message size.
        """
        if self._closed:
            raise ShardExecutorClosed("ShardExecutor is closed")
        values = list(values)
        if not values:
            return []
        n_shards = shards or self.n_workers
        spans = split_shards(len(values), n_shards)

        # encode ONCE, split into views.  A request that cannot be encoded
        # is the caller's error: in-process run_batch isolates it, and a
        # worker would only fail the same way
        try:
            fields = [
                np.asarray(f, dtype=np.int64) for f in prog.encode_batch_fields(values)
            ]
        except ENCODE_ERRORS:
            return prog.run_batch(
                values, max_steps=max_steps, return_exceptions=return_exceptions
            )
        span_views = prog.split_batch_fields(fields, spans)

        with self._lock:
            # key/blob assignment must happen under the dispatch lock: two
            # threads registering different cold programs concurrently could
            # otherwise read the same wire key, aliasing worker cache slots
            key, blob = self._blob_for(prog)
            self._task_counter += 1
            task = _Task(prog, self._task_counter, key, blob, max_steps)
            for shard_idx, (off, length) in enumerate(spans):
                if length == 0:
                    task.done[shard_idx] = []  # nothing to run: never dispatched
                    continue
                worker = self._workers[shard_idx % self.n_workers]
                span = _Span(worker, values[off : off + length], pack_oob(span_views[shard_idx]))
                task.pending[shard_idx] = span
                self._send(task, shard_idx, span)
            self._collect(task)

        out: list = []
        first_error: Optional[BatchError] = None
        for shard_idx in range(len(spans)):
            off = spans[shard_idx][0]
            for res in task.done[shard_idx]:
                if isinstance(res, BatchError):
                    res = res.rebased(off)
                    if first_error is None or res.index < first_error.index:
                        first_error = res
                out.append(res)
        if first_error is not None and not return_exceptions:
            raise first_error
        return out

    def _collect(self, task: _Task) -> None:
        """Gather one result per pending span, surviving worker deaths.

        Each round drains every waiting worker's own result queue with
        non-blocking reads, then either reclaims the spans of workers seen
        dead or, when nothing arrived, blocks on a ``connection.wait``
        select over the queue pipes.  A queue is **never** read once its
        worker is seen dead — a kill mid-``put()`` leaves a partial frame
        that ``poll()`` reports readable but a read would block on forever.
        """
        while task.pending:
            waiting: list[_Worker] = []
            for _, span in sorted(task.pending.items()):
                if span.worker not in waiting:
                    waiting.append(span.worker)
            dead: list[_Worker] = []
            progressed = False
            for w in waiting:
                if not w.process.is_alive():
                    dead.append(w)  # never read a dead worker's queue
                    continue
                while True:
                    try:
                        msg = w.out_q.get_nowait()
                    except queue_mod.Empty:
                        break
                    except (OSError, EOFError):  # broken pipe: treat as dead
                        dead.append(w)
                        break
                    self._handle(task, msg)
                    progressed = True
            if not task.pending:
                break
            if dead:
                # reclaim EVERY pending span of every dead worker before
                # respawning: a replacement passes the is_alive() check but
                # reads fresh queues, so an unreclaimed span would hang
                for shard_idx in sorted(task.pending):
                    if task.pending[shard_idx].worker in dead:
                        task.recompute(shard_idx)
                for w in dead:
                    w.stats["respawns"] += 1
                    self._spawn(w)
            elif not progressed:
                # nothing ready anywhere: block on a select over the live
                # workers' queue pipes (or time out and re-check liveness)
                readers = [w.out_q._reader for w in waiting if hasattr(w.out_q, "_reader")]
                if readers:
                    try:
                        mp_connection.wait(readers, timeout=0.25)
                    except OSError:
                        time.sleep(0.05)
                else:  # pragma: no cover - exotic Queue implementation
                    time.sleep(0.05)

    def _handle(self, task: _Task, msg) -> None:
        """Apply one worker reply to the task: resend, recompute or complete a span."""
        rid, shard_idx, status, payload = msg
        span = task.pending.get(shard_idx)
        if rid != task.id or span is None:
            return  # stale result from an abandoned task
        worker = span.worker
        if status == _STATUS_NEED_PROG:
            # the worker's LRU evicted a program the parent's mirror still
            # lists: resend — with the blob exactly once per worker per task
            if id(worker) not in task.resent:
                worker.shipped.pop(task.key, None)
                worker.stats["need_prog"] += 1
                task.resent.add(id(worker))
            self._send(task, shard_idx, span)
            return
        if status == _STATUS_REGISTERS:
            # the output registers: unpack and decode the flat fields back
            # to S-objects — the only decode that ever happens, and it
            # happens exactly once, parent-side
            meta, frames, count = payload
            worker.stats["bytes_shipped"] += _frame_bytes(frames)
            try:
                result = task.prog.decode_batch_fields(unpack_oob(meta, frames), count)
            except Exception:
                # a torn result is an infrastructure failure, not a
                # caller-visible one
                status = _STATUS_ERROR
        else:
            result = payload
        if status == _STATUS_ERROR:
            # infrastructure failure (not an input trap — those come back
            # as in-slot BatchErrors): recompute the span in-process so the
            # caller still gets exact results
            task.recompute(shard_idx)
            worker.stats["errors"] += 1
            return
        del task.pending[shard_idx]
        task.done[shard_idx] = result
        worker.stats["spans"] += 1
        worker.stats["items"] += len(span.chunk)
        worker.stats["busy_s"] += time.perf_counter() - span.sent_at
