"""E10c — execution backends: generated mega-kernels vs fused closures.

The pluggable backend subsystem (``repro.backends``) makes engine choice a
benchmark dimension.  This experiment pins the headline claim for the
``vector`` backend — each maximal straight-line block compiled to one
generated Python function with interval-bound guard elision:

* **>= 3x requests/sec over the fused baseline at batch 64** on at least
  two vector-heavy workloads.  The regime is long straight-line chains of
  cheap elementwise ops on small requests, where per-instruction dispatch
  and guard reductions dominate the fused executor — exactly what the
  generated code eliminates;
* **bit-identical semantics**: every backend must produce the same output
  registers and the same deterministic ``T'``/``W'`` counters, which also
  feed the perf-regression gate.

Timing is machine-only (the batched twin runs on pre-encoded inputs):
request marshalling is identical across backends and would otherwise
drown the engine difference on these microsecond-scale programs.  Repeats
are interleaved across backends so frequency drift cancels instead of
biasing whichever side ran last.
"""

import time

import common

from repro.analysis import format_table
from repro.bvram import BVRAM
from repro.compiler import compile_nsc
from repro.compiler.batch import batched_program
from repro.nsc import builder as B
from repro.nsc import from_python
from repro.nsc.types import NAT

BACKENDS = ("fused", "vector")
BATCH = 64
REPEAT = 11


def _chain(rounds, round_body):
    """``rounds`` small per-round lambdas composed linearly.

    Composing via ``B.compose`` keeps the term linear in ``rounds``;
    nesting the expressions directly would duplicate the round input
    four times per level and blow up exponentially.
    """
    fn = None
    for k in range(rounds):
        x = B.gensym(f"x{k}")
        lam = B.lam(x, NAT, round_body(x, k))
        fn = lam if fn is None else B.compose(lam, fn)
    return B.map_(fn)


def _mix(rounds=96):
    # min/max/monus/shift/add mix: every op takes the generated fast path
    return _chain(
        rounds,
        lambda x, k: B.nat_max(
            B.nat_min(
                B.add(B.v(x), 2 * k + 3),
                B.add(B.rshift(B.v(x), 1), 331),
            ),
            B.sub(B.v(x), k + 1),
        ),
    )


def _smooth(rounds=64):
    # shift-add smoothing with a doubling monus: a different op mix that
    # still stays on single-ufunc fast paths (bounds keep products small)
    return _chain(
        rounds,
        lambda x, k: B.nat_min(
            B.add(B.add(B.v(x), B.rshift(B.v(x), 2)), k + 1),
            B.sub(B.mul(B.v(x), 2), B.rshift(B.v(x), 1)),
        ),
    )


def _workloads():
    r = common.rng(6)
    reqs = [[r.randrange(997) for _ in range(4)] for _ in range(BATCH)]
    return [("mix96", _mix(), reqs), ("smooth64", _smooth(), reqs)]


def test_e10_backend_throughput(benchmark):
    rows = []
    speedups = {}
    for name, fn, requests in _workloads():
        prog = compile_nsc(fn)
        twin = batched_program(prog)
        enc = twin.encode_batch_input([from_python(v) for v in requests])
        machines = {be: BVRAM(twin.n_registers) for be in BACKENDS}
        outcomes = {
            be: m.run(twin, enc, record_trace=False, backend=be)
            for be, m in machines.items()
        }
        ref = outcomes["fused"]
        for be, res in outcomes.items():
            assert (res.time, res.work) == (ref.time, ref.work), (
                f"{name}/{be}: T'/W' diverge from fused"
            )
            assert all(
                (a == b).all() for a, b in zip(res.registers, ref.registers)
            ), f"{name}/{be}: output registers diverge from fused"
        best = {be: float("inf") for be in BACKENDS}
        for _ in range(REPEAT):
            for be, m in machines.items():
                t0 = time.perf_counter()
                m.run(twin, enc, record_trace=False, backend=be)
                best[be] = min(best[be], time.perf_counter() - t0)
        for be in BACKENDS:
            common.record(
                f"e10/backends/{name}/{be}/batch{BATCH}",
                backend=be,
                wall_s=best[be],
                requests_per_s=round(BATCH / best[be]),
                time=outcomes[be].time,
                work=outcomes[be].work,
                opt_level=prog.opt_level,
            )
            rows.append(
                [name, be, f"{BATCH / best[be]:,.0f}",
                 f"{best['fused'] / best[be]:.2f}x"]
            )
        speedups[name] = best["fused"] / best["vector"]
    print("\nE10c backend throughput at batch 64 (machine-only, encoded twin)")
    print(format_table(["workload", "backend", "req/s", "vs fused"], rows))
    fast = [n for n, s in speedups.items() if s >= 3.0]
    assert len(fast) >= 2, (
        f"expected >=3x requests/sec for the vector backend at batch {BATCH} "
        f"on >=2 workloads, got {speedups}"
    )
    name, fn, requests = _workloads()[0]
    prog = compile_nsc(fn, backend="vector")
    twin = batched_program(prog)
    enc = twin.encode_batch_input([from_python(v) for v in requests])
    machine = BVRAM(twin.n_registers)
    machine.run(twin, enc, record_trace=False)
    benchmark(lambda: machine.run(twin, enc, record_trace=False, backend="vector"))
