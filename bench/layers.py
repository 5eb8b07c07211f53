"""The traced run: per-layer metrics from spans around each layer's public calls.

Every timing here is a span recorded by :mod:`bench.trace`; a metric is the sum
over programs of the shortest of ``REPEATS`` spans of that name.  Optional
parts of the program (backends, transports, the router) are discovered at run
time and a part that is gone is reported absent, not failed.  End-to-end
metrics are never taken from this run.
"""

from __future__ import annotations

import asyncio
import math
import os
import pickle
import shutil
import statistics
import tempfile
import time

import numpy as np

from repro.backends import available_backends, get_backend
from repro.cache import CompileCache, cache_key
from repro.compiler import compile_nsc
from repro.compiler.batch import BatchError, run_batch_fields
from repro.maprec import translate
from repro.nsc import apply_function, from_python
from repro.nsc.ast import count_nodes
from repro.nsc.typecheck import infer_function
from repro.obs.trace import Trace
from repro.serving import Server, ShardExecutor

from . import harness
from .phases import Session, wrong
from .trace import Tracer

REPEATS = 3  #: spans per (layer, program); the metric takes the shortest
OPEN_LOOP_S = 1.2  #: how long each open-loop rate is offered
PASSES = ("compile/nsa", "compile/optimize", "compile/flatten", "compile/codegen")


class Layers:
    def __init__(self, session: Session, phase: harness.Phase, smoke: bool) -> None:
        self.s, self.w, self.phase = session, session.w, phase
        self.repeats = 1 if smoke else REPEATS
        self.open_loop_s = 0.2 if smoke else OPEN_LOOP_S
        self.tr = Tracer()
        self.m: dict = {}  # metric name -> value
        self.leaked: list = []

    def ms(self, metric: str, span_name: str) -> None:
        """Milliseconds from the shortest spans of that name; no such span, no metric."""
        if any(s.name == span_name for s in self.tr.spans):
            self.m[metric] = self.tr.best(span_name) * 1e3

    def each_case(self):
        return zip(self.s.progs, self.s.values, self.s.cases)

    def with_program_trace(self, name: str, key: str, fn):
        """Run ``fn`` under a benchmark span with the program's own tracer on; adopt its spans."""
        origin = time.perf_counter()
        with Trace() as program_trace, self.tr.span(name, key) as sp:
            out = fn()
        self.tr.adopt(program_trace.events(), origin, sp)
        return out

    # -- maprec/, nsc/ -----------------------------------------------------------

    def frontend(self) -> None:
        tr = self.tr
        defs = [(c.name, c.case.make) for c in self.s.cases if c.case.maprec]
        defs += list(self.w.compile_only)
        for _ in range(self.repeats):
            for name, defn in defs:
                d = defn()
                with tr.span("maprec.translate", name):
                    translate(d)
            for name, fn in self.s.functions:
                with tr.span("nsc.typecheck", name):
                    infer_function(fn)
        self.ms("maprec.translate_ms", "maprec.translate")
        self.ms("nsc.typecheck_ms", "nsc.typecheck")
        self.m["maprec.ast_nodes"] = sum(count_nodes(fn) for _, fn in self.s.functions)

    def envelope(self) -> None:
        """Theorem 7.1 on the probe inputs: T'/T and log W'/log W against the interpreter."""
        t = w = t2 = w2 = 0
        for prog, _, case in self.each_case():
            for _ in range(2):
                with self.tr.span("nsc.eval", case.name):
                    out = apply_function(case.fn, from_python(case.probe))
            res = prog.run(case.probe)[1]
            t, w, t2, w2 = t + out.time, w + out.work, t2 + res.time, w2 + res.work
        self.ms("nsc.eval_ms", "nsc.eval")
        self.m.update({"nsc.eval_T": t, "nsc.eval_W": w, "compiler.T_ratio": t2 / t,
                       "compiler.W_exp": math.log(w2) / math.log(w)})

    # -- compiler/ ---------------------------------------------------------------

    def compile_passes(self) -> None:
        progs = {}
        for _ in range(self.repeats):
            for name, fn in self.s.functions:
                progs[name] = self.with_program_trace(
                    "compile_nsc", name, lambda fn=fn: compile_nsc(fn, cache=None)
                )
        for p in PASSES:
            self.ms(f"compiler.{p.split('/')[1]}_ms", p)
        self.m["compiler.nsa_size"] = sum(p.nsa_size for p in progs.values())
        self.m["compiler.instr_flat"] = self.tr.count("compile/flatten", "instructions")
        self.m["compiler.regs"] = sum(p.n_registers for p in progs.values())
        # how much of the benchmark's compile_nsc span the program's own pass spans explain
        self.m["obs.span_coverage"] = sum(self.tr.total(p) for p in PASSES) / self.tr.total("compile_nsc")

    def opt0(self) -> None:
        """What opt_level 2 buys: the same programs and inputs at opt_level 0."""
        instr = t = w = 0
        for _, value, case in self.each_case():
            naive = compile_nsc(case.fn, opt_level=0, cache=None)
            out, res = naive.run(value)
            self.phase.record(1, wrong([out], [case.run_expected]))
            instr, t, w = instr + len(naive.instructions), t + res.time, w + res.work
        self.m.update({"compiler.opt0_instr": instr, "compiler.opt0_T": t, "compiler.opt0_W": w})

    # -- cache/ ------------------------------------------------------------------

    def cache(self, scratch: str) -> None:
        tr, store, compiled = self.tr, None, self.s.compiled
        for rep in range(self.repeats):
            store = CompileCache(os.path.join(scratch, f"cache{rep}"))
            for name, fn in self.s.functions:
                with tr.span("cache.key", name):
                    key = cache_key(fn)
                missed = store.get(key) is None
                with tr.span("cache.put", name):
                    store.put(key, compiled[name])
                store.clear_memo()
                with tr.span("cache.get_disk", name):
                    from_disk = store.get(key)
                with tr.span("cache.get_memo", name):
                    from_memo = store.get(key)
                bad = not missed or from_memo is not from_disk or (
                    len(from_disk.instructions) != len(compiled[name].instructions))
                self.phase.record(1, int(bad))
        for part in ("key", "put", "get_disk", "get_memo"):
            self.ms(f"cache.{part}_ms", f"cache.{part}")
        snap = store.snapshot()
        self.m.update({"cache.disk_bytes": snap["disk_bytes"], "cache.hits": snap["hits"],
                       "cache.misses": snap["misses"]})

    # -- backends/, bvram/ -------------------------------------------------------

    def backends(self) -> None:
        tr = self.tr
        for name in available_backends():
            for prog, value, case in self.each_case():
                for _ in range(self.repeats):
                    with tr.span(f"backends.{name}.run", case.name) as sp:
                        out, res = prog.run(value, backend=name)
                    sp.counts.update(T=res.time, W=res.work)
                self.phase.record(1, wrong([out], [case.run_expected]))
                bare = pickle.loads(pickle.dumps(prog))  # plans never cross a pickle boundary
                with tr.span(f"backends.{name}.plan", case.name):
                    get_backend(name).plan(bare)
            self.ms(f"backends.{name}.run_ms", f"backends.{name}.run")
            self.ms(f"backends.{name}.plan_ms", f"backends.{name}.plan")
            self.m[f"backends.{name}.run_calls"] = sum(
                harness.count_calls(lambda: prog.run(value, backend=name))[0]
                for prog, value, _ in self.each_case()
            )
        for prog, value, case in self.each_case():
            for _ in range(2):
                with tr.span("bvram.traced_run", case.name):
                    prog.run(value, trace=True)
        self.ms("bvram.traced_run_ms", "bvram.traced_run")

    def cost_fit(self) -> None:
        """Least squares ``wall ~ alpha*T' + beta*W'`` over the workload's programs and sizes."""
        rows = {}
        for prog, value, case in self.each_case():
            sizes = (value, from_python(case.probe), from_python(case.requests[0]))
            for j, arg in enumerate(sizes):
                for _ in range(self.repeats):
                    with self.tr.span("backends.fit", f"{case.name}/{j}"):
                        res = prog.run(arg)[1]
                rows[f"{case.name}/{j}"] = [res.time, res.work]
        walls = self.tr.shortest("backends.fit")
        a = np.array(list(rows.values()), dtype=float)
        y = np.array([walls[k] for k in rows])
        coef = np.linalg.lstsq(a, y, rcond=None)[0]
        residual = y - a @ coef
        r2 = 1.0 - float(residual @ residual) / float(((y - y.mean()) ** 2).sum())
        self.m.update({"backends.alpha_ns": coef[0] * 1e9, "backends.beta_ns": coef[1] * 1e9,
                       "backends.fit_r2": r2})

    # -- compiler/batch.py -------------------------------------------------------

    def batch(self) -> None:
        tr, B = self.tr, self.w.B
        encoded = 0
        for prog, _, case in self.each_case():
            requests, expected = case.requests[:B], case.req_expected[:B]
            for _ in range(self.repeats):
                with tr.span("batch.from_python", case.name, items=B):
                    vals = [from_python(r) for r in requests]
                with tr.span("batch.encode", case.name, items=B) as sp:
                    fields = prog.encode_batch_fields(vals)
                sp.counts["bytes"] = sum(np.asarray(f).nbytes for f in fields)
                with tr.span("batch.execute", case.name, items=B):
                    tag, regs = run_batch_fields(prog, fields, B)
                with tr.span("batch.decode", case.name, items=B):
                    outs = prog.decode_batch_fields(regs, B) if tag == "registers" else regs
                self.with_program_trace("batch.run_batch", case.name, lambda: prog.run_batch(requests))
                with tr.span("batch.twin_compile", case.name):
                    compile_nsc(case.fn, batch_axis=True, cache=None)
            with tr.span("batch.loop", case.name, items=B):  # the plain loop run_batch replaces
                for r in requests:
                    prog.run(r)
            self.phase.record(B, wrong(outs, expected))
            encoded += sp.counts["bytes"]
            if case.case.trap is not None:
                hurt = list(requests)
                hurt[B // 2] = case.case.trap
                for _ in range(self.repeats):
                    with tr.span("batch.trap1", case.name, items=B):
                        outs = prog.run_batch(hurt, return_exceptions=True)
                good = [o for i, o in enumerate(outs) if i != B // 2]
                bad = wrong(good, [e for i, e in enumerate(expected) if i != B // 2])
                self.phase.record(B, bad + int(not isinstance(outs[B // 2], BatchError)))
        for part in ("from_python", "encode", "execute", "decode", "twin_compile", "trap1"):
            self.ms(f"batch.{part}_ms", f"batch.{part}")
        split = sum(self.m[f"batch.{p}_ms"] for p in ("from_python", "encode", "execute", "decode"))
        whole = self.tr.best("batch.run_batch") * 1e3
        self.m.update({"batch.encoded_bytes": encoded, "batch.split_over_whole": split / whole,
                       "batch.loop_ratio": whole / (self.tr.best("batch.loop") * 1e3)})
        # the lone-request batches serve_solo_ms is made of: same requests, same averaging
        for prog, _, case in self.each_case():
            for _ in range(self.repeats):
                with tr.span("batch.b1", case.name, items=self.w.solo):
                    for k in range(self.w.solo):
                        prog.run_batch([case.requests[k]])
        self.m["batch.b1_ms"] = tr.best("batch.b1") * 1e3 / (self.w.solo * len(self.s.cases))

    # -- serving/scheduler.py ----------------------------------------------------

    async def scheduler(self, solo_ms: float) -> None:
        tr = self.tr
        origin = time.perf_counter()
        program_trace = Trace()
        server = Server(tracer=program_trace)
        lanes = range(len(self.s.cases))
        requests = self.w.C * self.w.R
        try:
            for i in lanes:  # lanes and the executor thread start here
                await self.s.closed_loop(server.submit, i)
            before = server.metrics.snapshot()
            for _ in range(self.repeats):
                for i in lanes:
                    with tr.span("serve.closed", self.s.cases[i].name, items=requests) as block:

                        async def submit(prog, value):
                            t0 = time.perf_counter()
                            out = await server.submit(prog, value)
                            tr.add("serve.request", t0, time.perf_counter(), block.id, block.key)
                            return out

                        outs = await self.s.closed_loop(submit, i)
                    self.phase.record(requests, wrong(outs, self.s.closed_loop_expected(i)))
            after = server.metrics.snapshot()
            batches = after["batches"] - before["batches"]
            self.m.update({
                "serving.scheduler.batches": batches / self.repeats,
                "serving.scheduler.batch_size_mean": self.repeats * len(lanes) * requests / batches,
                "serving.scheduler.rejected": after["rejected"] + after["admission_rejected"],
                "serving.scheduler.solo_overhead_ms": solo_ms - self.m["batch.b1_ms"],
            })
            late = []
            for label, rate in zip(("lo", "hi"), self.w.open_rates):
                with tr.span(f"serve.open_{label}", rate=rate):
                    latencies = await self.open_loop(server, rate, late)
                cuts = statistics.quantiles(latencies, n=20)
                self.m[f"serving.scheduler.open_{label}_p50_ms"] = statistics.median(latencies) * 1e3
                self.m[f"serving.scheduler.open_{label}_p95_ms"] = cuts[18] * 1e3
            self.m["serving.scheduler.late_p95_ms"] = statistics.quantiles(late, n=20)[18] * 1e3
            with tr.span("serve.metrics_endpoint"):
                await server.metrics_endpoint()
        finally:
            await server.close()
        first = next(s for s in tr.spans if s.name == "serve.closed")
        tr.adopt(program_trace.events(), origin, first)

    async def open_loop(self, server, rate: float, late: list) -> list[float]:
        """Send on a schedule whatever the server does; time each request from its due time."""
        loop = asyncio.get_running_loop()
        count = max(20, int(rate * self.open_loop_s))
        n, pool = len(self.s.cases), len(self.s.cases[0].requests)
        latencies, tasks = [], []

        async def one(k, due):
            i = k % n
            out = await server.submit(self.s.progs[i], self.s.cases[i].requests[k % pool])
            latencies.append(loop.time() - due)
            self.phase.record(1, wrong([out], [self.s.cases[i].req_expected[k % pool]]))

        start = loop.time() + 0.01
        for k in range(count):
            due = start + k / rate
            if due > loop.time():
                await asyncio.sleep(due - loop.time())
            late.append(max(0.0, loop.time() - due))
            tasks.append(asyncio.ensure_future(one(k, due)))
        await asyncio.gather(*tasks)
        return latencies

    # -- serving/shard.py, serving/transport.py ----------------------------------

    def shard_ops(self, executor, span_name: str) -> None:
        Bs = self.w.Bs
        for prog, _, case in self.each_case():
            prog.run_batch(case.requests[:Bs], executor=executor)  # ships the program
            for _ in range(self.repeats):
                with self.tr.span(span_name, case.name, items=Bs):
                    outs = prog.run_batch(case.requests[:Bs], executor=executor)
            self.phase.record(Bs, wrong(outs, case.req_expected[:Bs]))

    def closing(self, executor) -> None:
        self.s.track()
        executor.close()
        self.leaked += list(executor.leaked_segments or [])

    def shard(self) -> None:
        tr, Bs = self.tr, self.w.Bs
        main = self.s.shard
        before, t0 = main.metrics_snapshot(), time.perf_counter()
        self.shard_ops(main, "shard.batch")
        wall = time.perf_counter() - t0
        with tr.span("shard.metrics_snapshot"):
            after = main.metrics_snapshot()
        for prog, _, case in self.each_case():
            for _ in range(self.repeats):
                with tr.span("shard.inproc", case.name, items=Bs):
                    prog.run_batch(case.requests[:Bs])
        agg, seg = after["aggregate"], after["segments"]
        ops = (self.repeats + 1) * len(self.s.cases)
        self.m.update({
            "serving.shard.ipc_overhead_ms": (tr.best("shard.batch") - tr.best("shard.inproc")) * 1e3,
            "serving.shard.busy_share": (agg["busy_s"] - before["aggregate"]["busy_s"]) / wall,
            "serving.shard.need_prog": agg["need_prog"],
            "serving.shard.fallback_spans": agg["fallback_spans"],
            "serving.shard.respawns": agg["respawns"],
            "serving.transport.bytes_shipped":
                (seg["bytes_shipped"] - before["segments"]["bytes_shipped"]) / ops * len(self.s.cases),
        })
        for _ in range(2):
            with tr.span("shard.spawn"):
                fresh = ShardExecutor(n_workers=1)
            self.closing(fresh)
        self.m["serving.shard.spawn_s"] = tr.best("shard.spawn")
        two = ShardExecutor(n_workers=2)
        try:
            self.shard_ops(two, "shard.w2")
        finally:
            self.closing(two)
        self.m["serving.shard.w2_rps"] = Bs * len(self.s.cases) / tr.best("shard.w2")
        from repro.serving.transport import TRANSPORTS  # whichever wire formats still exist

        for name in TRANSPORTS:
            executor = ShardExecutor(n_workers=1, transport=name)
            try:
                self.shard_ops(executor, f"transport.{name}")
            finally:
                self.closing(executor)
            self.ms(f"serving.transport.{name}.batch_ms", f"transport.{name}")

    # -- serving/router.py -------------------------------------------------------

    async def router(self) -> None:
        try:
            from repro.serving import Router
        except ImportError:
            return
        router = Router(planes=2, workers_per_plane=1)
        lanes, requests = range(len(self.s.cases)), self.w.C * self.w.R
        try:
            for i in lanes:
                await self.s.closed_loop(router.submit, i)
            for _ in range(self.repeats):
                for i in lanes:
                    with self.tr.span("router.closed", self.s.cases[i].name, items=requests):
                        outs = await self.s.closed_loop(router.submit, i)
                    self.phase.record(requests, wrong(outs, self.s.closed_loop_expected(i)))
        finally:
            self.s.track()
            await router.close()
            self.leaked += list(router.leaked_segments)
        self.m["serving.router.rps"] = requests * len(lanes) / self.tr.best("router.closed")
        self.m["serving.router.vs_server"] = self.tr.best("serve.closed") / self.tr.best("router.closed")

    # -- obs/ --------------------------------------------------------------------

    def trace_overhead(self) -> None:
        """run + run_batch with the program's tracer on over the same calls with it off.

        The two are interleaved call by call, so both see the same phases of the host.
        """
        B = self.w.B
        for prog, value, case in self.each_case():
            for _ in range(2 * self.repeats):
                with self.tr.span("untraced.run", case.name):
                    prog.run(value)
                self.with_program_trace("traced.run", case.name, lambda: prog.run(value))
                with self.tr.span("untraced.run_batch", case.name):
                    prog.run_batch(case.requests[:B])
                self.with_program_trace(
                    "traced.run_batch", case.name, lambda: prog.run_batch(case.requests[:B])
                )
        best = self.tr.best
        self.m["obs.trace_overhead"] = (best("traced.run") + best("traced.run_batch")) / (
            best("untraced.run") + best("untraced.run_batch")
        )


async def measure(session: Session, timings, rounds: int, phases, args):
    """(per-layer metrics by name, lines to print under them) of one traced run.

    A part of the program that is gone is simply not among the metrics.
    """
    layers = Layers(session, phases["layers"], args.smoke)
    m = layers.m
    for t in timings:
        m[f"{t.name}.med"], m[f"{t.name}.iqr"] = harness.quartiles(t.per_round())
    m["harness.blocks"] = rounds
    m.update({f"setup.{k}": v for k, v in session.stages.items()})
    scratch = tempfile.mkdtemp(prefix="layers-", dir=harness.OUT)
    try:
        layers.frontend()
        layers.envelope()
        layers.compile_passes()
        layers.opt0()
        layers.cache(scratch)
        layers.backends()
        layers.cost_fit()
        layers.batch()
        solo = next(t for t in timings if t.name == "serve_solo_ms")
        await layers.scheduler(solo.best())
        layers.shard()
        await layers.router()
        layers.trace_overhead()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    layers.leaked += harness.shm_segments(session.pids - {os.getpid()})  # every extra worker is gone
    m["serving.transport.leaked"] = len(layers.leaked)
    phases["layers"].record(1, int(bool(layers.leaked)),
                            f"leaked segments: {layers.leaked}" if layers.leaked else None)
    layers.tr.export_chrome(os.path.join(harness.OUT, f"{args.workload}.trace.json"))
    ours = {s.name for s in layers.tr.spans if not s.leaf}  # not the thousands of request spans
    self_s = {k: v for k, v in layers.tr.self_seconds().items() if k in ours}
    notes = ["  self time by span, summed over the traced run     ms"] + [
        f"  {name:<40} {seconds * 1e3:>12.3f}"
        for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1])[:12]
    ]
    return m, notes
