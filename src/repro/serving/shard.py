"""Multi-core shard execution: spread one large batch across worker processes.

``run_batch`` amortises Python dispatch over the batch, but one process is
still one core — at batch 512 the single machine run saturates it.  The
paper's Brent bound (``O(T' + W'/p)``, Proposition 3.2) says the work side
scales with processors, and the batch axis is the trivially safe place to
cut: requests are independent, so splitting the batch into contiguous spans
and running each span's batched machine on its own core changes nothing
about any request's semantics.

:class:`ShardExecutor` owns a pool of **persistent** worker processes.  Each
worker receives a program at most once (pickled without its run-time caches,
see ``CompiledProgram.__getstate__``), compiles its batched twin and
execution plans locally on first use, and keeps them in a bounded per-worker
cache.

Spans travel over the **zero-copy transport** (:mod:`repro.serving.transport`):
the parent encodes the batch once into its canonical flat ``int64`` vectors —
plain Python requests go straight into them, directed by the program's input
type, with no S-object tree on the way in —
places them in one shared-memory segment, and each worker builds its register
file as read-only views addressed by ``(offset, length)`` descriptors — no
per-span re-encode, no pickled S-object graphs.  Results return the same way
(the batched twin's output registers, copied once into a worker-created
segment the parent adopts and decodes).  Segment lifecycle is explicit: a
batch segment holds one reference per pending span and is unlinked when the
last span completes; :meth:`ShardExecutor.close` force-releases everything,
records what leaked, and sweeps orphans left by dead workers.  Where shared
memory is unavailable — or a batch's segment cannot be created — the spans
ship as pickle-5 out-of-band frames (``oob``).  A batch the parent cannot
encode is the caller's error and never reaches a worker: it is answered by
in-process ``run_batch``, which isolates the malformed request.

When a compile cache is configured (:mod:`repro.cache`, ``REPRO_CACHE_DIR``
or the ``cache=`` constructor knob), workers **warm from the cache instead
of being shipped pickled programs**: the executor writes each program's
envelope into the store once (reusing the very bytes it would have shipped)
and sends only the content digest; the worker reads the artifact from disk.
The resolved cache directory *and size bound* are pinned into the worker's
spawn arguments, so a worker never re-reads ``REPRO_CACHE_DIR`` /
``REPRO_CACHE_MAX_MB`` from an environment that may differ from the
parent's.  The blob-shipping path remains the fallback whenever the store
misses, so correctness never depends on the cache; :meth:`warm` additionally
pre-loads a program list into every worker before any traffic arrives (the
router's cache warm-up).

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

import os
import pickle
import queue as queue_mod
import threading
import time
from collections import OrderedDict
from typing import Optional, Sequence

import multiprocessing as mp
from multiprocessing import connection as mp_connection

import numpy as np

from ..cache.store import ENV_DEFAULT, CompileCache, resolve_cache
from ..compiler.batch import ENCODE_ERRORS, BatchError, run_batch_fields, split_shards
from . import transport as _tp
from .transport import TRANSPORT_OOB, TRANSPORT_SHM, SegmentLedger, resolve_transport

#: per-worker program cache bound — old entries are evicted LRU and
#: transparently re-shipped on the next miss (the "need_prog" reply)
_WORKER_CACHE_SIZE = 64

_STATUS_OK = "ok"
_STATUS_OK_SHM = "ok_shm"
_STATUS_OK_OOB = "ok_oob"
_STATUS_ERROR = "error"
_STATUS_NEED_PROG = "need_prog"
_STATUS_WARM = "warm_ok"

_KIND_SPAN = "span"
_KIND_WARM = "warm"


class ShardExecutorClosed(RuntimeError):
    """The executor was closed; no further batches can be dispatched."""


def _worker_main(in_q, out_q, cache_dir=None, cache_max_bytes=None) -> None:
    """Worker loop: cache programs by key, run batched spans, report results.

    Every shard runs with per-input isolation (``return_exceptions=True``
    semantics) so one trapping input cannot poison its shard siblings; the
    parent decides whether to raise.  With ``cache_dir`` set, a program
    absent from the in-process cache is first looked up in the on-disk
    compile cache by its content ``digest`` (the parent wrote the artifact
    before dispatching); only a disk miss triggers the ``need_prog`` resend
    round-trip.  The cache location *and* its size bound arrive as spawn
    arguments — the worker never consults its own environment, which may
    disagree with the parent's.
    """
    cache: OrderedDict[int, object] = OrderedDict()
    warmed: dict[str, object] = {}  # digest -> program, via "warm" messages
    store = None
    if cache_dir:
        try:
            store = CompileCache(cache_dir, max_bytes=cache_max_bytes)
        except Exception:
            store = None  # an unusable cache degrades to blob shipping
    while True:
        msg = in_q.get()
        if msg is None:
            return
        if msg[0] == _KIND_WARM:
            loaded = 0
            if store is not None:
                for digest in msg[1]:
                    try:
                        prog = store.get(digest)
                    except Exception:
                        prog = None
                    if prog is not None:
                        warmed[digest] = prog
                        loaded += 1
            out_q.put((0, 0, _STATUS_WARM, loaded))
            continue
        (_, task_id, shard_idx, key, blob, digest, payload, count, max_steps,
         backend) = msg
        seg = None
        try:
            prog = cache.get(key)
            if prog is None:
                if blob is not None:
                    prog = pickle.loads(blob)
                elif digest is not None:
                    prog = warmed.pop(digest, None)
                    if prog is None and store is not None:
                        prog = store.get(digest)  # warm path: a cache read
                if prog is None:
                    # evicted / never shipped / cache miss: ask for the blob
                    out_q.put((task_id, shard_idx, _STATUS_NEED_PROG, None))
                    continue
                cache[key] = prog
                while len(cache) > _WORKER_CACHE_SIZE:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(key)
            kind = payload[0]
            if kind == TRANSPORT_SHM:
                seg, fields = _tp.attach_span(payload[1], payload[2])
            else:  # TRANSPORT_OOB
                fields = _tp.unpack_oob(payload[1], payload[2])
            # an explicit per-call backend rides the message, the program's
            # own pickled ``backend`` field applies otherwise
            tag, res = run_batch_fields(
                prog, fields, count, max_steps=max_steps, backend=backend
            )
            if tag == "registers":
                # fast path: ship the output registers by reference — no
                # S-object was ever built on this side of the boundary
                if kind == TRANSPORT_SHM:
                    name, desc = _tp.pack_registers(res)
                    out_q.put(
                        (task_id, shard_idx, _STATUS_OK_SHM, (name, desc, count))
                    )
                else:
                    meta, frames = _tp.pack_oob(res)
                    out_q.put(
                        (task_id, shard_idx, _STATUS_OK_OOB, (meta, frames, count))
                    )
            else:
                # the twin degraded to the per-input fallback loop: results
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
        finally:
            if seg is not None:
                try:
                    seg.close()  # unmap only; the parent's ledger unlinks
                except Exception:
                    pass


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
        #: program re-ships, cold dispatches served from the compile cache
        #: (digest-only send, no ``need_prog`` came back), programs
        #: pre-loaded by :meth:`ShardExecutor.warm`, respawns after death,
        #: spans recomputed in-parent, and busy seconds (span dispatch ->
        #: collection)
        self.stats = {
            "spans": 0,
            "items": 0,
            "errors": 0,
            "need_prog": 0,
            "cache_warm": 0,
            "warm_loads": 0,
            "respawns": 0,
            "fallback_spans": 0,
            "busy_s": 0.0,
        }

    def mark_shipped(self, key: int) -> None:
        self.shipped[key] = None
        self.shipped.move_to_end(key)
        # mirror the worker-side bound; divergence is harmless because a
        # worker-side miss replies "need_prog" and the parent resends
        while len(self.shipped) > _WORKER_CACHE_SIZE:
            self.shipped.popitem(last=False)


class ShardExecutor:
    """A persistent ``multiprocessing`` pool executing batch shards.

    ``n_workers`` defaults to the machine's core count.  ``start_method``
    defaults to ``fork`` where available (instant worker start; the plan
    caches and their locks are fork-safe, see ``repro.bvram.machine``),
    falling back to ``spawn``.  ``transport`` pins the span wire format to
    ``shm`` or ``oob``; by default the executor takes ``shm`` where shared
    memory works and ``oob`` otherwise (:mod:`repro.serving.transport`).
    Dispatch is serialised by an internal lock, so one executor may be
    shared by many threads (e.g. the server's executor threads).
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        cache: object = ENV_DEFAULT,
        transport: Optional[str] = None,
    ) -> None:
        if n_workers is not None and n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = n_workers or os.cpu_count() or 1
        #: the compile cache workers warm from (default: ``REPRO_CACHE_DIR``,
        #: ``None``/``False`` = classic blob shipping)
        self._cache = resolve_cache(cache)
        self.transport = resolve_transport(transport)
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(start_method)
        self.start_method = start_method
        self._ledger = SegmentLedger()
        #: segment names still referenced when :meth:`close` ran — the leak
        #: check; stays ``None`` until close, ``[]`` on a clean shutdown
        self.leaked_segments: Optional[list[str]] = None
        self._lock = threading.Lock()
        self._task_counter = 0
        self._closed = False
        #: recently dispatched programs: id(prog) -> (prog, wire key, blob).
        #: The strong ref pins id() while the entry lives; the *wire* key is
        #: a monotonic counter, never reused, so an evicted entry whose
        #: id() is later recycled by a new program can never alias a stale
        #: worker-cache slot.  LRU-bounded like the worker-side cache.
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
        cache_dir = self._cache.path if self._cache is not None else None
        cache_max = self._cache.max_bytes if self._cache is not None else None
        worker.process = self._ctx.Process(
            target=_worker_main,
            args=(worker.in_q, worker.out_q, cache_dir, cache_max),
            daemon=True,
        )
        worker.process.start()
        worker.shipped.clear()

    def close(self) -> None:
        """Stop every worker, release every segment, record leaks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        pids = []
        for w in self._workers:
            if w.process is not None and w.process.pid is not None:
                pids.append(w.process.pid)
            try:
                w.in_q.put(None)
            except Exception:
                pass
        for w in self._workers:
            w.process.join(timeout=5)
            if w.process.is_alive():
                w.process.terminate()
                w.process.join(timeout=5)
        # explicit lifecycle first (the leak check), then the orphan sweep
        # for result segments a dead worker created but never handed over
        self.leaked_segments = self._ledger.close()
        _tp.sweep_orphans(pids)

    def respawn_dead(self) -> int:
        """Proactively respawn any dead worker (the router's health check).

        Dispatch already survives deaths reactively (spans are reclaimed
        in-parent); this removes the first-batch latency hit by rebuilding
        the pool *between* batches.  Returns the number respawned.
        """
        if self._closed:
            return 0
        with self._lock:
            pids = []
            for w in self._workers:
                if w.process is not None and not w.process.is_alive():
                    if w.process.pid is not None:
                        pids.append(w.process.pid)
                    w.stats["respawns"] += 1
                    self._spawn(w)
            if pids:
                _tp.sweep_orphans(pids)
            return len(pids)

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
        is an upper bound on the worker's actual busy time.  ``segments``
        reports the transport ledger: segments created/adopted/live and
        batch bytes shipped by reference.
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
        return {
            "workers": workers,
            "aggregate": aggregate_worker_metrics(workers),
            "transport": self.transport,
            "segments": {
                "created": self._ledger.created,
                "adopted": self._ledger.adopted,
                "live": len(self._ledger.live()),
                "bytes_shipped": self._ledger.bytes_shipped,
            },
        }

    # -- dispatch ------------------------------------------------------------

    def _blob_for(self, prog) -> tuple[int, bytes, Optional[str]]:
        pid = id(prog)
        entry = self._programs.get(pid)
        if entry is None or entry[0] is not prog:
            self._next_key += 1
            blob = pickle.dumps(prog, protocol=pickle.HIGHEST_PROTOCOL)
            digest = None
            if self._cache is not None and getattr(prog, "source_fn", None) is not None:
                from ..cache.key import cache_key

                # seed the store with the exact bytes a ship would carry, so
                # every worker (and every later process) finds the artifact
                # under its content address
                digest = cache_key(
                    prog.source_fn,
                    eps=prog.eps,
                    opt_level=prog.opt_level,
                    batch_axis=prog.batch_axis,
                    backend=prog.backend,
                )
                try:
                    self._cache.put(digest, prog, payload=blob)
                except OSError:
                    digest = None  # unwritable store: fall back to shipping
            entry = (prog, self._next_key, blob, digest)
            self._programs[pid] = entry
            while len(self._programs) > _WORKER_CACHE_SIZE:
                self._programs.popitem(last=False)
        else:
            self._programs.move_to_end(pid)
        return entry[1], entry[2], entry[3]

    def warm(self, progs: Sequence[object]) -> int:
        """Pre-load programs into every live worker's cache; returns loads.

        Writes each program into the compile cache (exactly as a dispatch
        would) and tells every worker to read the artifacts *now*, so the
        first real batch after a (re)start pays no cold-ship round-trip —
        the router calls this when it builds or drain-restarts a plane.
        Without a configured cache this is a no-op returning 0.
        """
        if self._closed:
            raise ShardExecutorClosed("ShardExecutor is closed")
        with self._lock:
            if self._cache is None:
                return 0
            digests = []
            for prog in progs:
                _, _, digest = self._blob_for(prog)
                if digest is not None:
                    digests.append(digest)
            if not digests:
                return 0
            alive = [w for w in self._workers if w.process.is_alive()]
            for w in alive:
                w.in_q.put((_KIND_WARM, digests))
            total = 0
            for w in alive:
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    try:
                        msg = w.out_q.get(timeout=0.25)
                    except queue_mod.Empty:
                        if not w.process.is_alive():
                            break
                        continue
                    if msg[2] == _STATUS_WARM:
                        w.stats["warm_loads"] += msg[3]
                        total += msg[3]
                        break
                    # anything else here is a stale frame from an abandoned
                    # task on this (still-alive) worker: drop and keep waiting
            return total

    def _send(
        self,
        worker: _Worker,
        task_id,
        shard_idx,
        key,
        blob,
        digest,
        payload,
        count,
        max_steps,
        backend,
        force_blob: bool = False,
    ) -> bool:
        """Dispatch one span; True when this was a digest-only cold send.

        A cold key normally ships the pickled program; with a compile cache
        configured the send is *optimistic* — digest only — and the worker
        warms from disk (``force_blob`` overrides after a ``need_prog``).
        """
        ship = None
        optimistic = False
        if key not in worker.shipped:
            if digest is not None and not force_blob:
                optimistic = True
            else:
                ship = blob
            worker.mark_shipped(key)
        worker.in_q.put(
            (_KIND_SPAN, task_id, shard_idx, key, ship, digest, payload, count,
             max_steps, backend)
        )
        return optimistic

    def run_batch(
        self,
        prog,
        values: Sequence[object],
        shards: Optional[int] = None,
        max_steps: int = 10_000_000,
        return_exceptions: bool = False,
        backend: Optional[str] = None,
    ) -> list:
        """Run ``prog`` over ``values`` split into ``shards`` worker spans.

        See the module docstring for the exact semantics; ``shards``
        defaults to the worker count.  More shards than workers is allowed
        (spans round-robin onto workers and each worker drains its spans in
        order) — useful for tests and for bounding per-message size.
        ``backend`` selects the untraced engine *inside the workers* for
        this call; without it the program's own pickled ``backend`` field
        (then the worker's environment) decides.
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
                values, max_steps=max_steps, return_exceptions=return_exceptions,
                backend=backend,
            )
        span_views = prog.split_batch_fields(fields, spans)

        with self._lock:
            # key/blob assignment must happen under the dispatch lock: two
            # threads registering different cold programs concurrently could
            # otherwise read the same wire key, aliasing worker cache slots
            key, blob, digest = self._blob_for(prog)
            self._task_counter += 1
            task_id = self._task_counter

            kind = self.transport
            seg_name = None
            bases = None
            active = sum(1 for _, length in spans if length > 0)
            if kind == TRANSPORT_SHM:
                try:
                    # one segment per batch, one reference per dispatched span
                    seg_name, bases = _tp.pack_fields(self._ledger, fields, active)
                except OSError:
                    kind = TRANSPORT_OOB  # shm ran dry: this batch ships by value

            assignment = {}  # shard_idx -> (worker, offset, chunk)
            payloads = {}  # shard_idx -> wire payload (kept for resends)
            sent_at = {}  # shard_idx -> dispatch perf_counter (worker busy_s)
            optimistic = set()  # shards sent digest-only (cache_warm on OK)
            done: dict[int, list] = {}
            for shard_idx, (off, length) in enumerate(spans):
                if length == 0:
                    done[shard_idx] = []  # nothing to run: never dispatched
                    continue
                worker = self._workers[shard_idx % self.n_workers]
                chunk = values[off : off + length]
                views = span_views[shard_idx]
                if kind == TRANSPORT_SHM:
                    payload = (kind, seg_name, _tp.span_descriptor(views, fields, bases))
                else:
                    payload = (kind, *_tp.pack_oob(views))
                assignment[shard_idx] = (worker, off, chunk)
                payloads[shard_idx] = payload
                sent_at[shard_idx] = time.perf_counter()
                if self._send(
                    worker, task_id, shard_idx, key, blob, digest, payload,
                    length, max_steps, backend,
                ):
                    optimistic.add(shard_idx)
            self._collect(
                prog, task_id, key, blob, digest, assignment, payloads, sent_at,
                optimistic, max_steps, backend, seg_name, done,
            )

        out: list = []
        first_error: Optional[BatchError] = None
        for shard_idx in range(len(spans)):
            off = spans[shard_idx][0]
            for local_idx, res in enumerate(done[shard_idx]):
                if isinstance(res, BatchError):
                    res = res.rebased(off)
                    if first_error is None or res.index < first_error.index:
                        first_error = res
                out.append(res)
        if first_error is not None and not return_exceptions:
            raise first_error
        return out

    def _collect(
        self, prog, task_id, key, blob, digest, assignment, payloads, sent_at,
        optimistic, max_steps, backend, seg_name, done,
    ) -> None:
        """Gather one result per assigned shard, surviving worker deaths.

        Drains every waiting worker's own result queue with non-blocking
        reads, then blocks on a ``connection.wait`` select over the queue
        pipes until something arrives.  A queue is **never** read once its
        worker is seen dead — a kill mid-``put()`` leaves a partial frame
        that ``poll()`` reports readable but a read would block on forever;
        the dead worker's spans are recomputed in-parent, its segment
        references released, and a replacement spawned on fresh pipes.
        """
        pending = set(assignment)
        # workers whose blob resend is already in flight for this task: a
        # second need_prog from the same worker (a later span dispatched
        # before the blob arrived) must not re-count the miss or ship the
        # blob again — FIFO guarantees the earlier resend lands first
        resent: set[int] = set()

        def complete(shard_idx: int) -> None:
            pending.discard(shard_idx)
            self._ledger.release(seg_name)

        def recompute(shard_idx: int) -> None:
            chunk = assignment[shard_idx][2]
            done[shard_idx] = prog.run_batch(
                chunk, max_steps=max_steps, return_exceptions=True, backend=backend
            )
            complete(shard_idx)

        def handle(msg) -> None:
            rid, shard_idx, status, payload = msg
            if rid != task_id or shard_idx not in pending:
                return  # stale result from an abandoned task
            worker = assignment[shard_idx][0]
            if status == _STATUS_NEED_PROG:
                # worker-cache eviction, or the optimistic digest-only send
                # missed the worker's on-disk store (e.g. LRU-evicted
                # between send and read): resend — with the blob exactly
                # once per worker per task
                wid = id(worker)
                if wid not in resent:
                    worker.shipped.pop(key, None)
                    worker.stats["need_prog"] += 1
                    resent.add(wid)
                optimistic.discard(shard_idx)
                self._send(
                    worker, task_id, shard_idx, key, blob, digest,
                    payloads[shard_idx], len(assignment[shard_idx][2]),
                    max_steps, backend, force_blob=True,
                )
                return
            if status == _STATUS_ERROR:
                # infrastructure failure inside the worker (not an input
                # trap — those come back as in-slot BatchErrors): recompute
                # the span in-process so the caller still gets exact results
                recompute(shard_idx)
                worker.stats["errors"] += 1
                worker.stats["fallback_spans"] += 1
                return
            chunk = assignment[shard_idx][2]
            if status == _STATUS_OK:
                done[shard_idx] = payload
            else:
                # outputs shipped by reference: adopt/unpack and decode the
                # flat fields back to S-objects — the only decode that ever
                # happens, and it happens exactly once, parent-side
                try:
                    if status == _STATUS_OK_SHM:
                        name, desc, count = payload
                        try:
                            views = _tp.adopt_views(self._ledger, name, desc)
                            done[shard_idx] = prog.decode_batch_fields(views, count)
                        finally:
                            self._ledger.release(name)
                    else:  # _STATUS_OK_OOB
                        meta, frames, count = payload
                        views = _tp.unpack_oob(meta, frames)
                        done[shard_idx] = prog.decode_batch_fields(views, count)
                except Exception:
                    # a torn result (e.g. the segment vanished under us) is
                    # an infrastructure failure, not a caller-visible one
                    recompute(shard_idx)
                    worker.stats["errors"] += 1
                    worker.stats["fallback_spans"] += 1
                    return
            complete(shard_idx)
            worker.stats["spans"] += 1
            worker.stats["items"] += len(chunk)
            worker.stats["busy_s"] += time.perf_counter() - sent_at[shard_idx]
            if shard_idx in optimistic:
                # the digest-only cold send completed without a need_prog
                # round-trip: the worker warmed this program from the cache
                optimistic.discard(shard_idx)
                worker.stats["cache_warm"] += 1

        while pending:
            waiting: list[_Worker] = []
            seen: set[int] = set()
            for s in sorted(pending):
                w = assignment[s][0]
                if id(w) not in seen:
                    seen.add(id(w))
                    waiting.append(w)
            progressed = False
            dead: list[_Worker] = []
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
                    handle(msg)
                    progressed = True
            if not pending:
                break
            if dead:
                # reclaim EVERY pending span of every dead worker before
                # respawning (a replacement passes the is_alive() check but
                # reads fresh queues, so unreclaimed spans would hang), then
                # sweep result segments the dead process may have orphaned
                dead_ids = {id(w) for w in dead}
                for shard_idx in sorted(pending):
                    worker = assignment[shard_idx][0]
                    if id(worker) in dead_ids:
                        recompute(shard_idx)
                        worker.stats["fallback_spans"] += 1
                pids = [w.process.pid for w in dead if w.process.pid is not None]
                for w in dead:
                    w.stats["respawns"] += 1
                    self._spawn(w)
                _tp.sweep_orphans(pids)
                continue
            if progressed:
                continue
            # nothing ready anywhere: block on a select over the live
            # workers' queue pipes (or time out and re-check liveness)
            readers = [
                w.out_q._reader for w in waiting if hasattr(w.out_q, "_reader")
            ]
            if readers:
                try:
                    mp_connection.wait(readers, timeout=0.25)
                except OSError:
                    time.sleep(0.05)
            else:  # pragma: no cover - exotic Queue implementation
                time.sleep(0.05)
