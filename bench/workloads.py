"""The four workloads: program sets, seeded inputs, hand-written oracles, sizes.

Every size below is a constant of the workload; ``--seed`` only draws *values*.
Each input is built from two generators: a **shape** generator seeded by the
case's name (so the permutation pattern a sort sees, the filter mask and the
multiset of Collatz step counts never change) and a **value** generator seeded
by ``--seed`` (so every generated input differs between seeds).  That is what
lets ``machine_T``, ``machine_W`` and the ``_calls`` counts be compared
exactly between two commits, and keeps the timings of two seeds comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.algorithms.mergesort import mergesort_def
from repro.algorithms.quicksort import quicksort_def
from repro.algorithms.schemata import (
    balanced_sum,
    countdown,
    halving_tail,
    skewed_sum,
    two_or_three_way_sum,
)
from repro.maprec import translate
from repro.nsc import NAT, lib
from repro.nsc import builder as B

# -- programs built here from the public builder ---------------------------------

FILTER_K = 500  #: filter keeps values below this
VALUE_HI = 1000  #: plain values are drawn from range(VALUE_HI)


def map_affine():
    x = B.gensym("x")
    return B.map_(B.lam(x, NAT, B.mod(B.add(B.mul(B.v(x), 7), 3), 101)))


def map_square():
    x = B.gensym("x")
    return B.map_(B.lam(x, NAT, B.mul(B.v(x), B.v(x))))


def filter_lt():
    z = B.gensym("z")
    return lib.filter_fn(B.lam(z, NAT, B.lt(B.v(z), FILTER_K)), NAT)


def map_collatz():
    """``map(while(x > 1, collatz step))`` — the Lemma 7.2 staged-loop case."""
    x, y = B.gensym("x"), B.gensym("y")
    step = B.if_(B.eq(B.mod(B.v(y), 2), 0), B.div(B.v(y), 2), B.add(B.mul(B.v(y), 3), 1))
    return B.map_(B.while_(B.lam(x, NAT, B.gt(B.v(x), 1)), B.lam(y, NAT, step)))


# -- input generators: (shape rng, value rng, n) -> plain Python data ------------


def any_values(shape: random.Random, rng: random.Random, n: int) -> list[int]:
    """Cost depends on ``n`` only, so every value is free."""
    return [rng.randrange(VALUE_HI) for _ in range(n)]


def same_order(shape: random.Random, rng: random.Random, n: int) -> list[int]:
    """Distinct seeded values laid out in the case's fixed permutation pattern."""
    pattern = list(range(n))
    shape.shuffle(pattern)
    values = sorted(rng.sample(range(100 * n + 100), n))
    return [values[p] for p in pattern]


def same_mask(shape: random.Random, rng: random.Random, n: int) -> list[int]:
    """Seeded values on a fixed below/above ``FILTER_K`` mask (half are kept)."""
    mask = [i % 2 == 0 for i in range(n)]
    shape.shuffle(mask)
    return [rng.randrange(FILTER_K) if m else rng.randrange(FILTER_K, VALUE_HI) for m in mask]


def same_multiset(shape: random.Random, rng: random.Random, n: int) -> list[int]:
    """A fixed multiset of Collatz starts in a seeded arrangement."""
    values = [shape.randrange(1, 5000) for _ in range(n)]
    rng.shuffle(values)
    return values


# -- oracles: plain Python, nothing from the compiler ---------------------------


def _pairs(x):
    return [x[i : i + 2] for i in range(0, len(x), 2)]


@dataclass(frozen=True)
class Case:
    """One program of a workload with its inputs and its oracle."""

    name: str
    make: Callable[[], object]  #: the NSC function, or the MapRecursiveDef when ``maprec``
    oracle: Callable[[object], object]
    gen: Callable[[random.Random, random.Random, int], object]
    n_run: int  #: size of the single-run input
    n_req: tuple[int, ...]  #: request sizes, cycled by request index
    maprec: bool = False  #: ``make`` returns a definition that goes through ``translate``
    trap: Optional[object] = None  #: an input on which the machine traps (overflow)

    def function(self):
        return translate(self.make()) if self.maprec else self.make()


_BIG = 2**62  # 7 * _BIG, _BIG * _BIG and 3 * _BIG + 1 all overflow int64

QUICKSORT = dict(make=quicksort_def, oracle=sorted, gen=same_order, maprec=True)
SUM = dict(oracle=sum, gen=any_values, maprec=True)
AFFINE = dict(
    make=map_affine, oracle=lambda x: [(7 * v + 3) % 101 for v in x], gen=any_values, trap=[_BIG]
)
SQUARE = dict(make=map_square, oracle=lambda x: [v * v for v in x], gen=any_values, trap=[_BIG])
FILTER = dict(make=filter_lt, oracle=lambda x: [v for v in x if v < FILTER_K], gen=same_mask)
PAIRWISE = dict(make=lambda: lib.pairwise(NAT), oracle=_pairs, gen=any_values)
REDUCE = dict(make=lib.reduce_add, oracle=sum, gen=any_values)
COLLATZ = dict(
    make=map_collatz, oracle=lambda x: [min(v, 1) for v in x], gen=same_multiset, trap=[_BIG + 1]
)


@dataclass(frozen=True)
class Workload:
    """A program set plus every size the phases use (see bench/README.md)."""

    name: str
    why: str
    cases: tuple[Case, ...]  #: compiled, run, batched, served and sharded
    #: (name, MapRecursiveDef thunk): translate()d and compiled, cold and warm, never run
    compile_only: tuple[tuple[str, Callable], ...] = ()
    B: int = 16  #: in-process ``run_batch`` size
    Bs: int = 64  #: ``run_batch`` size through the one-worker ShardExecutor
    C: int = 16  #: closed-loop clients in the one event loop
    R: int = 2  #: requests each client sends, one after the other, per block
    solo: int = 1  #: lone requests, one after the other, per ``serve_solo_ms`` block
    reps: dict = field(default_factory=dict)  #: repeats inside one block, by metric
    open_rates: tuple[float, float] = (10.0, 20.0)  #: open-loop req/s, ~25% and ~50% of serve_rps

    def rep(self, metric: str) -> int:
        return self.reps.get(metric, 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compile_sorts",
            why="seven translate()d recursive programs of 1.3k-2.1k instructions: "
            "compiler/, maprec/ and cache/ do most of the work; cold vs warm is the cache",
            cases=(
                Case("quicksort_t", n_run=8, n_req=(8,), **QUICKSORT),
                Case("two_or_three_t", make=two_or_three_way_sum, n_run=8, n_req=(8,), **SUM),
            ),
            compile_only=(
                ("mergesort_t", mergesort_def),
                ("balanced_sum_t", balanced_sum),
                ("skewed_sum_t", skewed_sum),
                ("halving_tail_t", halving_tail),
                ("countdown_t", countdown),
            ),
            B=16, Bs=32, C=8, R=2, solo=1,
            open_rates=(75.0, 150.0),
        ),
        Workload(
            name="run_wide",
            why="tens to hundreds of instructions on 2k-200k-element vectors: NumPy kernels, "
            "from_python/encode/decode and transport bytes dominate, dispatch does not",
            cases=(
                Case("map_affine", n_run=200_000, n_req=(10_000,), **AFFINE),
                Case("filter_lt", n_run=200_000, n_req=(10_000,), **FILTER),
                Case("pairwise", n_run=50_000, n_req=(5_000,), **PAIRWISE),
                Case("reduce_add", n_run=10_000, n_req=(2_000,), **REDUCE),
            ),
            B=4, Bs=4, C=4, R=2, solo=2,
            reps={"compile_cold_ms": 2, "compile_warm_ms": 4},
            open_rates=(25.0, 50.0),
        ),
        Workload(
            name="run_deep",
            why="T' of 1e4-1e5 at width 16-32: per-instruction Python dispatch in backends/ "
            "dominates; the same execute layer as run_wide used the opposite way",
            cases=(
                Case("quicksort_t", n_run=16, n_req=(16,), **QUICKSORT),
                Case("map_collatz", n_run=32, n_req=(32,), **COLLATZ),
            ),
            B=8, Bs=16, C=8, R=2, solo=1,
            reps={"compile_warm_ms": 3},
            open_rates=(50.0, 100.0),
        ),
        Workload(
            name="serve_small",
            why="four straight-line programs on 8-16-element requests: from_python, encode/decode, "
            "lane queues, futures and shard message count outweigh execute",
            cases=(
                Case("map_affine", n_run=16, n_req=tuple(range(8, 17)), **AFFINE),
                Case("map_square", n_run=16, n_req=tuple(range(8, 17)), **SQUARE),
                Case("filter_lt", n_run=16, n_req=tuple(range(8, 17)), **FILTER),
                Case("pairwise", n_run=16, n_req=tuple(range(8, 17)), **PAIRWISE),
            ),
            B=64, Bs=512, C=32, R=4, solo=8,
            reps={"compile_cold_ms": 6, "compile_warm_ms": 12, "run_ms": 60, "batch_rps": 12,
                  "shard_rps": 2},
            open_rates=(2250.0, 4500.0),
        ),
    )
}

PROBE_N = 16  #: size of the input each case is also run on through the Definition 3.1 interpreter


@dataclass
class BuiltCase:
    """A case instantiated for one seed: the function, inputs and expected outputs."""

    case: Case
    fn: object
    run_input: object
    run_expected: object
    requests: list
    req_expected: list
    probe: object  #: a small input for the interpreter cross-check

    @property
    def name(self) -> str:
        return self.case.name


def build_case(case: Case, seed: int, n_requests: int) -> BuiltCase:
    def shape(tag):
        return random.Random(f"shape:{case.name}:{tag}")

    rng = random.Random(f"values:{case.name}:{seed}")
    run_input = case.gen(shape("run"), rng, case.n_run)
    requests = [
        case.gen(shape(i), rng, case.n_req[i % len(case.n_req)]) for i in range(n_requests)
    ]
    return BuiltCase(
        case=case,
        fn=case.function(),
        run_input=run_input,
        run_expected=case.oracle(run_input),
        requests=requests,
        req_expected=[case.oracle(r) for r in requests],
        probe=case.gen(shape("probe"), rng, PROBE_N),
    )


def build(workload: Workload, seed: int) -> list[BuiltCase]:
    """The workload's run cases for ``seed`` (requests cover B, Bs and one serve block)."""
    n = max(workload.B, workload.Bs, workload.C * workload.R, workload.solo)
    return [build_case(c, seed, n) for c in workload.cases]


def smoke(workload: Workload) -> Workload:
    """The same run programs at sizes a contract test can afford; no compile-only set."""
    def small(case: Case) -> Case:
        return replace(case, n_run=min(case.n_run, 32), n_req=tuple(min(n, 16) for n in case.n_req))

    return replace(
        workload,
        cases=tuple(small(c) for c in workload.cases), compile_only=(),
        B=min(workload.B, 8), Bs=min(workload.Bs, 8), C=min(workload.C, 4), solo=1, reps={},
    )
