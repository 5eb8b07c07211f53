"""Concurrency and process-boundary safety of one shared CompiledProgram.

The mutable state under test is the lazily-built execution plans —
the op table ``_fast_plan`` and the ``_fused_plan`` (``repro.backends``) —
which their plan caches guard with locks.  The hammer starts
8 threads against a *cold* program so the first builds race, and checks
every result stays exactly equal to the single-threaded reference.  The
pickling tests pin the other half of the contract: a program crosses a
process boundary **without** its caches (they hold closures), and a forked
child re-derives them and computes identical values.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.compiler import compile_nsc
from repro.nsc import builder as B
from repro.nsc.types import NAT


def _collatz_fn():
    x = B.gensym("x")
    pred = B.lam(x, NAT, B.gt(B.v(x), 1))
    y = B.gensym("y")
    step = B.lam(
        y,
        NAT,
        B.if_(
            B.eq(B.mod(B.v(y), 2), 0),
            B.div(B.v(y), 2),
            B.add(B.mul(B.v(y), 3), 1),
        ),
    )
    return B.map_(B.while_(pred, step))


INPUTS = [[27, 9, 100], [1], [97, 3, 64, 7, 31]]
BATCH = [[i % 50 + 1, (i * 7) % 90 + 1] for i in range(16)]


def test_eight_threads_hammer_one_program():
    fn = _collatz_fn()
    reference = compile_nsc(fn)  # separate instance: keeps `prog` cold
    expected_runs = [reference.run(v)[0] for v in INPUTS]
    expected_batch = reference.run_batch(BATCH)

    for _ in range(3):  # fresh program each round: the cache builds race
        prog = compile_nsc(fn)
        errors = []

        def hammer(tid: int) -> None:
            try:
                for i in range(8):
                    v = INPUTS[(tid + i) % len(INPUTS)]
                    got, _ = prog.run(v)
                    assert got == expected_runs[(tid + i) % len(INPUTS)]
                    assert prog.run_batch(BATCH) == expected_batch
            except BaseException as e:  # surface failures from worker threads
                errors.append(f"thread {tid}: {type(e).__name__}: {e}")

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert not errors, errors


def test_pickle_drops_runtime_caches():
    prog = compile_nsc(_collatz_fn())
    expected = prog.run(INPUTS[0])[0]
    prog.profile(INPUTS[0])  # warms the profiler's block map too
    prog.run_batch(BATCH)  # records the batched run's outcome
    for attr in ("_fast_plan", "_fused_plan", "_profile_meta"):
        assert getattr(prog, attr, None) is not None, attr
    assert hasattr(prog, "_batch_fallback_error")

    state = prog.__getstate__()
    for attr in prog._CACHE_ATTRS:
        assert attr not in state

    clone = pickle.loads(pickle.dumps(prog))
    for attr in prog._CACHE_ATTRS:
        assert not hasattr(clone, attr)
    assert clone.run(INPUTS[0])[0] == expected
    assert clone.run_batch(BATCH) == prog.run_batch(BATCH)


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="fork start method unavailable"
)
def test_forked_child_reuses_warm_program():
    prog = compile_nsc(_collatz_fn())
    expected = prog.run_batch(BATCH)
    prog.run(INPUTS[0])  # warm the plans in the parent before forking

    ctx = mp.get_context("fork")
    q = ctx.Queue()

    def child(q):
        # inherited locks were re-initialised by the at-fork handlers; the
        # inherited plans are plain closures and must still be exact
        q.put(prog.run_batch(BATCH))

    p = ctx.Process(target=child, args=(q,))
    p.start()
    got = q.get(timeout=30)
    p.join(timeout=30)
    assert p.exitcode == 0
    assert got == expected
