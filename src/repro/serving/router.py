"""The multi-process serving router: one front door over N compute planes.

The single-process :class:`~repro.serving.Server` tops out at one core plus
whatever its attached shard pool wins back; the millions-of-users shape the
ROADMAP names is the next rung: a :class:`Router` owning N serving
**planes**, each a full ``Server`` + :class:`~repro.serving.ShardExecutor`
worker group, with requests routed by **consistent hashing on the program's
content digest**.  Digest routing is the load-bearing choice: every request
for one program lands on the same plane, so its compiled twin, execution
plans and worker caches are hot exactly once per plane actually serving it —
not once per plane times programs, and never thrashing between planes.
Virtual ring nodes smooth the assignment; when a plane is draining or
unhealthy the walk continues around the ring, so failover is a cache-warm
neighbour, not a cold restart.

The router closes the operational loop the shard tier left open:

* **cache warm-up** — :meth:`warm` compiles each function through the
  content-addressed compile cache (PR 8) and has every plane's workers read
  the artifacts *before* traffic arrives; a drain-restarted plane re-warms
  from the same set automatically.
* **health** — :meth:`health_check` respawns dead shard workers between
  batches; :meth:`restart_plane` drains a plane (in-flight batches finish,
  queued requests fail fast), tears it down with the transport's segment
  leak check, and rebuilds it warm.
* **observability** — :meth:`metrics_endpoint` aggregates
  :class:`~repro.serving.metrics.ServerMetrics` across planes (counters
  sum; percentiles pool the raw latency windows — never an average of
  percentiles) and renders per-plane labelled Prometheus series.

Requests enter either async (:meth:`submit`, the serving path through the
plane's scheduler) or synchronously (:meth:`run_batch`,
straight onto the routed plane's shard pool — the differential-testing
path).  Both preserve the batch contract: order-preserving results, trap
indices global to the submitted batch.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import pickle
import threading
from collections import OrderedDict
from typing import Optional, Sequence, Union

from ..cache.store import ENV_DEFAULT, CompileCache, resolve_cache
from ..compiler import CompiledProgram, compile_nsc
from ..nsc import ast as A
from ..obs.export import (
    aggregate_server_snapshots,
    render_cache_prometheus,
    render_router_prometheus,
)
from .scheduler import Server
from .shard import ShardExecutor
from .slo import SLOConfig


class RouterClosed(RuntimeError):
    """The router is closed (or closing); the request was not accepted."""


class _Plane:
    """One compute plane: a Server front end over its own shard pool."""

    __slots__ = ("index", "server", "executor", "healthy", "restarts")

    def __init__(self, index: int, server: Server, executor: ShardExecutor) -> None:
        self.index = index
        self.server = server
        self.executor = executor
        self.healthy = True
        self.restarts = 0


class Router:
    """N serving planes behind consistent-hash routing on program digests.

    Knobs: ``planes`` is the plane count; ``workers_per_plane`` sizes each
    plane's shard pool (default: one — planes are the scaling axis);
    ``virtual_nodes`` sets ring smoothness (96 gives a plane-count-
    independent ±few-percent key spread); ``transport`` selects the span
    wire format per plane (see :mod:`repro.serving.transport`).  The
    remaining knobs are forwarded to every plane's :class:`Server`
    (batch and queue bounds, SLO, backend) and are documented there.  All planes
    share one resolved compile cache, which is what makes digest routing,
    warm-up and failover line up: the digest a request routes by is the
    artifact's content address in the shared store.
    """

    def __init__(
        self,
        planes: int = 2,
        *,
        workers_per_plane: int = 1,
        virtual_nodes: int = 96,
        max_batch: int = 64,
        max_queue: int = 1024,
        shards: Optional[int] = None,
        shard_threshold: Optional[int] = None,
        worker_threads: int = 1,
        max_steps: int = 10_000_000,
        backend: Optional[str] = None,
        cache: object = ENV_DEFAULT,
        slo: Optional[SLOConfig] = None,
        transport: Optional[str] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if planes <= 0:
            raise ValueError(f"planes must be positive, got {planes}")
        if virtual_nodes <= 0:
            raise ValueError(f"virtual_nodes must be positive, got {virtual_nodes}")
        self.n_planes = planes
        self.workers_per_plane = workers_per_plane
        self.virtual_nodes = virtual_nodes
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.shards = shards
        self.shard_threshold = shard_threshold
        self.worker_threads = worker_threads
        self.max_steps = max_steps
        self.backend = backend
        self.slo = slo
        self.transport = transport
        self.start_method = start_method
        resolved = resolve_cache(cache)
        if isinstance(resolved, (str, bytes, os.PathLike)):
            resolved = CompileCache(os.fspath(resolved))
        self._cache = resolved
        self._lock = threading.Lock()
        self._closed = False
        #: programs to (re-)warm every plane with, keyed by digest — a
        #: restarted plane rebuilds its workers' caches from this set
        self._warmset: "OrderedDict[str, CompiledProgram]" = OrderedDict()
        #: digest memo: id(prog) -> (prog, digest); same discipline as the
        #: executor's program table (strong ref pins the id)
        self._digests: "OrderedDict[int, tuple[object, str]]" = OrderedDict()
        self._compiled: "OrderedDict[int, tuple[object, CompiledProgram]]" = (
            OrderedDict()
        )
        #: routing counters: requests routed, ring walks that skipped an
        #: unhealthy plane, programs loaded into workers by warm-up
        self.routed = 0
        self.failovers = 0
        self.warm_loads = 0
        #: segment names still referenced at plane teardown (leak check)
        self.leaked_segments: list[str] = []
        self._planes = [self._build_plane(i) for i in range(planes)]
        self._ring: list[tuple[int, int]] = []
        self._build_ring()

    # -- construction --------------------------------------------------------

    def _build_plane(self, index: int) -> _Plane:
        executor = ShardExecutor(
            n_workers=self.workers_per_plane,
            start_method=self.start_method,
            cache=self._cache,
            transport=self.transport,
        )
        server = Server(
            max_batch=self.max_batch,
            max_queue=self.max_queue,
            executor=executor,
            shards=self.shards,
            shard_threshold=self.shard_threshold,
            worker_threads=self.worker_threads,
            max_steps=self.max_steps,
            backend=self.backend,
            cache=self._cache,
            slo=self.slo,
        )
        return _Plane(index, server, executor)

    def _build_ring(self) -> None:
        ring: list[tuple[int, int]] = []
        for plane in self._planes:
            for replica in range(self.virtual_nodes):
                token = f"plane-{plane.index}:{replica}".encode()
                h = int.from_bytes(hashlib.sha256(token).digest()[:8], "big")
                ring.append((h, plane.index))
        ring.sort()
        self._ring = ring

    # -- routing -------------------------------------------------------------

    def _resolve(self, fn: Union[CompiledProgram, A.Function]) -> CompiledProgram:
        """Accept a CompiledProgram directly or compile (and memoize) a fn."""
        if isinstance(fn, CompiledProgram):
            return fn
        key = id(fn)
        entry = self._compiled.get(key)
        if entry is None or entry[0] is not fn:
            entry = (fn, compile_nsc(fn, backend=self.backend, cache=self._cache))
            self._compiled[key] = entry
            while len(self._compiled) > 256:
                self._compiled.popitem(last=False)
        else:
            self._compiled.move_to_end(key)
        return entry[1]

    def digest(self, prog: CompiledProgram) -> str:
        """The program's routing key: its compile-cache content address.

        Programs with a ``source_fn`` use :func:`repro.cache.key.cache_key`
        — the very digest shard workers warm from, so routing and cache
        warm-up agree by construction.  Hand-built programs fall back to a
        hash of their pickled form (stable across calls, not across knobs).
        """
        pid = id(prog)
        entry = self._digests.get(pid)
        if entry is not None and entry[0] is prog:
            self._digests.move_to_end(pid)
            return entry[1]
        if getattr(prog, "source_fn", None) is not None:
            from ..cache.key import cache_key

            d = cache_key(
                prog.source_fn,
                eps=prog.eps,
                opt_level=prog.opt_level,
                batch_axis=prog.batch_axis,
                backend=prog.backend,
            )
        else:
            blob = pickle.dumps(prog, protocol=pickle.HIGHEST_PROTOCOL)
            d = hashlib.sha256(blob).hexdigest()
        self._digests[pid] = (prog, d)
        while len(self._digests) > 256:
            self._digests.popitem(last=False)
        return d

    def plane_for(self, digest: str) -> _Plane:
        """The ring walk: first healthy plane clockwise of the digest point."""
        if self._closed:
            raise RouterClosed("router is closed")
        h = int.from_bytes(hashlib.sha256(digest.encode()).digest()[:8], "big")
        n = len(self._ring)
        start = bisect.bisect_left(self._ring, (h, -1)) % n
        home = self._planes[self._ring[start][1]]
        for step in range(n):
            plane = self._planes[self._ring[(start + step) % n][1]]
            if plane.healthy:
                if plane is not home:
                    self.failovers += 1
                self.routed += 1
                return plane
        raise RouterClosed("no healthy plane to route to")

    # -- request entry points ------------------------------------------------

    async def submit(self, fn: Union[CompiledProgram, A.Function], value: object):
        """Route one request to its plane's scheduler."""
        if self._closed:
            raise RouterClosed("router is closed")
        prog = self._resolve(fn)
        plane = self.plane_for(self.digest(prog))
        return await plane.server.submit(prog, value)

    def run_batch(
        self,
        fn: Union[CompiledProgram, A.Function],
        values: Sequence[object],
        shards: Optional[int] = None,
        max_steps: Optional[int] = None,
        return_exceptions: bool = False,
        backend: Optional[str] = None,
    ) -> list:
        """Route one whole batch straight onto its plane's shard pool.

        Bypasses the async scheduler (no event loop required) but exercises
        the full routing + zero-copy transport path — the entry point the
        differential battery pins ``routed == sharded == run_batch`` with,
        including global trap-index attribution.
        """
        if self._closed:
            raise RouterClosed("router is closed")
        prog = self._resolve(fn)
        plane = self.plane_for(self.digest(prog))
        return plane.executor.run_batch(
            prog,
            values,
            shards=shards,
            max_steps=self.max_steps if max_steps is None else max_steps,
            return_exceptions=return_exceptions,
            backend=backend if backend is not None else self.backend,
        )

    # -- warm-up / health ----------------------------------------------------

    def warm(self, fns: Sequence[Union[CompiledProgram, A.Function]]) -> int:
        """Compile through the shared cache and pre-load every plane's workers.

        Every plane receives the full warm set (failover can land any
        digest anywhere), and the set is remembered: a drain-restarted
        plane re-warms from it before taking traffic.  Returns the total
        number of worker-side artifact loads (0 without a configured
        cache).
        """
        if self._closed:
            raise RouterClosed("router is closed")
        progs = [self._resolve(fn) for fn in fns]
        with self._lock:
            for prog in progs:
                self._warmset[self.digest(prog)] = prog
            while len(self._warmset) > 256:
                self._warmset.popitem(last=False)
            warmset = list(self._warmset.values())
        total = 0
        for plane in self._planes:
            if plane.healthy:
                total += plane.executor.warm(warmset)
        self.warm_loads += total
        return total

    def health_check(self) -> dict:
        """Probe every plane's worker pool, respawning dead workers now.

        Returns ``{plane_index: {"healthy", "workers_alive", "respawned"}}``.
        Planes mid-restart (``healthy=False``) are reported but not probed.
        """
        report: dict = {}
        for plane in self._planes:
            if not plane.healthy:
                report[plane.index] = {
                    "healthy": False,
                    "workers_alive": 0,
                    "respawned": 0,
                }
                continue
            respawned = plane.executor.respawn_dead()
            snap = plane.executor.metrics_snapshot()
            report[plane.index] = {
                "healthy": True,
                "workers_alive": snap["aggregate"]["alive"],
                "respawned": respawned,
            }
        return report

    async def restart_plane(self, index: int) -> list[str]:
        """Drain one plane, tear it down, rebuild it warm.

        While draining, the ring routes the plane's digests to its healthy
        neighbours (counted as failovers).  In-flight batches finish;
        queued requests fail with ``ServerClosed``.  Returns the segment
        names the old executor leaked (``[]`` on a clean drain — the tests'
        assertion).
        """
        if self._closed:
            raise RouterClosed("router is closed")
        plane = self._planes[index]
        plane.healthy = False
        await plane.server.close()
        plane.executor.close()
        leaked = list(plane.executor.leaked_segments or [])
        self.leaked_segments.extend(leaked)
        fresh = self._build_plane(index)
        plane.server = fresh.server
        plane.executor = fresh.executor
        with self._lock:
            warmset = list(self._warmset.values())
        if warmset:
            self.warm_loads += plane.executor.warm(warmset)
        plane.restarts += 1
        plane.healthy = True
        return leaked

    # -- observability -------------------------------------------------------

    def _router_snapshot(self) -> dict:
        return {
            "planes": self.n_planes,
            "healthy_planes": sum(1 for p in self._planes if p.healthy),
            "workers_per_plane": self.workers_per_plane,
            "routed": self.routed,
            "failovers": self.failovers,
            "warm_loads": self.warm_loads,
            "restarts": sum(p.restarts for p in self._planes),
            "leaked_segments": len(self.leaked_segments),
            "transport": self._planes[0].executor.transport if self._planes else None,
        }

    async def metrics_endpoint(self, format: str = "json") -> tuple[str, str]:
        """One scrape across every plane: ``(content_type, body)``.

        JSON serves the cross-plane aggregate (pooled percentiles), the
        router's own counters, and each plane's full server + shard
        snapshot.  Prometheus renders the aggregate under ``repro_router``
        and per-plane series under ``repro_server``/``repro_shard`` with
        ``plane`` labels — mirroring
        :meth:`repro.serving.Server.metrics_endpoint` one level up.
        """
        plane_snaps = [p.server.metrics.snapshot() for p in self._planes]
        shard_snaps = [p.executor.metrics_snapshot() for p in self._planes]
        windows = [list(p.server.metrics._latencies) for p in self._planes]
        agg = aggregate_server_snapshots(plane_snaps, latencies=windows)
        router = self._router_snapshot()
        cache = self._cache.snapshot() if self._cache is not None else None
        if format in ("prometheus", "text"):
            body = render_router_prometheus(agg, plane_snaps, shard_snaps, router)
            if cache is not None:
                body += render_cache_prometheus(cache)
            return "text/plain; version=0.0.4; charset=utf-8", body
        if format != "json":
            raise ValueError(f"unknown metrics format {format!r} (json/prometheus)")
        doc: dict = {
            "aggregate": agg,
            "router": router,
            "planes": [
                {
                    "plane": p.index,
                    "healthy": p.healthy,
                    "restarts": p.restarts,
                    "server": snap,
                    "shard_executor": shard,
                }
                for p, snap, shard in zip(self._planes, plane_snaps, shard_snaps)
            ],
        }
        if cache is not None:
            doc["compile_cache"] = cache
        if self.slo is not None:
            doc["slo_lanes"] = [
                lane.ctrl.snapshot()
                for p in self._planes
                for lane in p.server._lanes.values()
                if lane.ctrl is not None
            ]
        return "application/json", json.dumps(doc, sort_keys=True)

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        """Drain and stop every plane; collect the segment leak check."""
        if self._closed:
            return
        self._closed = True
        for plane in self._planes:
            plane.healthy = False
            await plane.server.close()
            plane.executor.close()
            self.leaked_segments.extend(plane.executor.leaked_segments or [])

    async def __aenter__(self) -> "Router":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
