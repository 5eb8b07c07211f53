"""One benchmark session: set-up, the end-to-end operations, checks and counts.

End-to-end operations go through the front door only — ``compile_nsc``,
``CompiledProgram.run``/``run_batch``, ``CompileCache``, ``Server`` and
``ShardExecutor`` with default knobs and ``backend=None`` — so deleting a
tier, a transport or the router cannot break them.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time

from repro.cache import CompileCache
from repro.compiler import compile_nsc
from repro.maprec import translate
from repro.nsc import apply_function, from_python, to_python
from repro.serving import Server, ShardExecutor

from . import harness
from .harness import Part, Phase, Timing
from .workloads import Workload, build


def wrong(outputs, expected) -> int:
    """How many of ``outputs`` (S-objects) differ from their expected Python values."""
    return sum(1 for out, exp in zip(outputs, expected) if to_python(out) != exp) + abs(
        len(outputs) - len(expected)
    )


class Session:
    """The workload's programs, compiled and warm, plus a started Server and ShardExecutor.

    Must be created inside a running event loop (the one loop all load comes from).
    """

    def __init__(self, workload: Workload, seed: int, cache_dir: str) -> None:
        self.stages = {}  # set-up stage -> seconds
        t0 = time.perf_counter()
        self.w = workload
        self.cases = build(workload, seed)
        #: every function the compile metrics cover: the run cases, then the compile-only ones
        self.functions = [(c.name, c.fn) for c in self.cases] + [
            (name, translate(defn())) for name, defn in workload.compile_only
        ]
        t1 = self._stage("build_s", t0)

        # a first start with a cache configured: every compile misses and is written
        self.cache = CompileCache(cache_dir)
        self.compiled = {name: compile_nsc(fn, cache=self.cache) for name, fn in self.functions}
        self.progs = [self.compiled[c.name] for c in self.cases]
        self.values = [from_python(c.run_input) for c in self.cases]
        t2 = self._stage("compile_s", t1)

        # one warm-up of every phase: plans, batched twins, lanes, the worker's copies
        self.server = Server()
        self.shard = ShardExecutor(n_workers=1)
        self.pids = {os.getpid()}  # every process whose segments the leak check looks for
        self.track()
        for prog, value, case in zip(self.progs, self.values, self.cases):
            prog.run(value)
            prog.run_batch(case.requests[: workload.B])
            prog.run_batch(case.requests[: workload.Bs], executor=self.shard)
        self._stage("warm_s", t2)

    def track(self) -> None:
        """Remember the worker processes alive now; segment names carry their creator's pid."""
        self.pids.update(p.pid for p in multiprocessing.active_children())

    def _stage(self, name: str, since: float) -> float:
        now = time.perf_counter()
        self.stages[name] = now - since
        return now

    async def warm_server(self) -> None:
        """The last set-up step: one request per lane through the started Server."""
        t0 = time.perf_counter()
        await asyncio.gather(
            *(self.server.submit(p, c.requests[0]) for p, c in zip(self.progs, self.cases))
        )
        self.stages["warm_s"] += time.perf_counter() - t0

    async def close(self, phase: Phase) -> None:
        """Stop the server and the worker; a leaked segment is a failed operation."""
        await self.server.close()
        self.shard.close()
        leaked = list(self.shard.leaked_segments or []) + harness.shm_segments(self.pids)
        phase.record(1, 1 if leaked else 0, f"leaked segments: {leaked}" if leaked else None)

    # -- the end-to-end operations, as parts of timing metrics -------------------

    def _plan(self, client: int) -> list[int]:
        """The request indices one closed-loop client sends in a block."""
        return list(range(client * self.w.R, (client + 1) * self.w.R))

    async def closed_loop(self, submit, i: int) -> list:
        """C clients on lane ``i``; each sends its next request when the last one returned."""
        prog, case = self.progs[i], self.cases[i]

        async def client(c):
            return [await submit(prog, case.requests[k]) for k in self._plan(c)]

        per_client = await asyncio.gather(*(client(c) for c in range(self.w.C)))
        return [out for outs in per_client for out in outs]

    def closed_loop_expected(self, i: int) -> list:
        return [self.cases[i].req_expected[k] for c in range(self.w.C) for k in self._plan(c)]

    async def _solo(self, i: int) -> list:
        """``solo`` lone requests to lane ``i``, one after the other."""
        return [
            await self.server.submit(self.progs[i], self.cases[i].requests[k])
            for k in range(self.w.solo)
        ]

    def timings(self) -> list[Timing]:
        """The seven block-timed metrics; every operation is split into one part per program."""
        w, rep = self.w, self.w.rep

        def repeat(fn, n):
            """``fn`` n times, returning the last outputs (an awaitable passes through when n is 1)."""

            def block():
                for _ in range(n - 1):
                    fn()
                return fn()

            return block

        def warm_compile():
            self.cache.clear_memo()
            return [compile_nsc(fn, cache=self.cache) for _, fn in self.functions]

        def per_case(metric, op, expected, ops, divide=None):
            """One part per program: ``op(i)`` -> outputs, ``expected(i)`` -> their oracle values."""
            n = rep(metric)
            return [
                Part(
                    f"{metric}/{case.name}",
                    repeat(lambda i=i: op(i), n),
                    ops=ops * n,
                    divide=divide or n,
                    check=lambda out, i=i: wrong(out, expected(i)),
                )
                for i, case in enumerate(self.cases)
            ]

        n_case = len(self.cases)
        sizes = {name: len(p.instructions) for name, p in self.compiled.items()}
        n = rep("compile_cold_ms")
        cold = [
            Part(
                f"compile_cold_ms/{name}",
                repeat(lambda fn=fn: compile_nsc(fn, cache=None), n),
                ops=n,
                divide=n,
                check=lambda prog, name=name: int(len(prog.instructions) != sizes[name]),
            )
            for name, fn in self.functions
        ]
        n = rep("compile_warm_ms")
        warm = Part(
            "compile_warm_ms",
            repeat(warm_compile, n),
            ops=n * len(self.functions),
            divide=n,
            check=lambda progs: sum(
                len(p.instructions) != sizes[name] for (name, _), p in zip(self.functions, progs)
            ),
        )
        progs, values, cases = self.progs, self.values, self.cases
        return [
            Timing("compile_cold_ms", "ms", cold),
            Timing("compile_warm_ms", "ms", [warm]),
            Timing(
                "run_ms", "ms",
                per_case("run_ms", lambda i: [progs[i].run(values[i])[0]],
                         lambda i: [cases[i].run_expected], ops=1),
            ),
            Timing(
                "batch_rps", "1/s",
                per_case("batch_rps", lambda i: progs[i].run_batch(cases[i].requests[: w.B]),
                         lambda i: cases[i].req_expected[: w.B], ops=w.B),
                requests=w.B * n_case,
            ),
            Timing(
                "serve_rps", "1/s",
                per_case("serve_rps", lambda i: self.closed_loop(self.server.submit, i),
                         self.closed_loop_expected, ops=w.C * w.R),
                requests=w.C * w.R * n_case,
            ),
            # mean latency of a lone request, averaged over the lanes
            Timing(
                "serve_solo_ms", "ms",
                per_case("serve_solo_ms", self._solo, lambda i: cases[i].req_expected[: w.solo],
                         ops=w.solo, divide=w.solo * n_case),
            ),
            Timing(
                "shard_rps", "1/s",
                per_case(
                    "shard_rps",
                    lambda i: progs[i].run_batch(cases[i].requests[: w.Bs], executor=self.shard),
                    lambda i: cases[i].req_expected[: w.Bs], ops=w.Bs,
                ),
                requests=w.Bs * n_case,
            ),
        ]

    # -- untimed passes ----------------------------------------------------------

    def check_interpreter(self, phase: Phase) -> None:
        """Definition 3.1 interpreter == compiled == oracle, on one small input per case."""
        for prog, case in zip(self.progs, self.cases):
            expected = case.case.oracle(case.probe)
            try:
                interpreted = apply_function(case.fn, from_python(case.probe)).value
                compiled = prog.run(case.probe)[0]
                bad = int(to_python(interpreted) != expected or interpreted != compiled)
                phase.record(1, bad, f"{case.name}: interpreter disagrees" if bad else None)
            except Exception as e:  # noqa: BLE001
                phase.record(1, 1, f"{case.name}: {type(e).__name__}: {e}")

    def counts(self) -> dict:
        """The count metrics of one steady-state pass (plans and twins already built)."""
        out = dict.fromkeys(
            ("compile_calls", "code_instr", "run_calls", "machine_T", "machine_W", "batch_calls"), 0
        )
        for _, fn in self.functions:
            calls, prog = harness.count_calls(lambda: compile_nsc(fn, cache=None))
            out["compile_calls"] += calls
            out["code_instr"] += len(prog.instructions)
        for prog, value, case in zip(self.progs, self.values, self.cases):
            calls, (_, res) = harness.count_calls(lambda: prog.run(value))
            out["run_calls"] += calls
            out["machine_T"] += res.time
            out["machine_W"] += res.work
            calls, _ = harness.count_calls(lambda: prog.run_batch(case.requests[: self.w.B]))
            out["batch_calls"] += calls
        return out
