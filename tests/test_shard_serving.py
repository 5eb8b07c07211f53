"""Shard executor semantics: order, trap attribution, shard boundaries.

The contract under test: splitting a batch across worker processes changes
*nothing* observable — results come back in batch order, a trapping input is
named by its **global** batch index whatever shard it landed in, and
``return_exceptions=True`` places each error in exactly its own slot.  The
boundary cases the ISSUE calls out are covered explicitly: first/last index
of an interior shard, shards of size 1, and the empty remainder shard that
appears when ``shards`` exceeds the batch size.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time

import numpy as np
import pytest

from fuzz_gen import too_deep
from repro.compiler import BatchError, compile_nsc
from repro.compiler.batch import run_batch_fields, split_shards
from repro.nsc import builder as B
from repro.nsc.types import NAT, SeqType
from repro.nsc.values import from_python
from repro.obs.export import render_shard_prometheus
from repro.serving import ShardExecutor, ShardExecutorClosed
from repro.serving import shard as shard_mod
from repro.serving import transport as _tp


def _get_fn():
    """``get(xs)``: traps unless the input is a singleton sequence."""
    x = B.gensym("x")
    return B.lam(x, SeqType(NAT), B.get_(B.v(x)))


def _affine_fn():
    x = B.gensym("x")
    return B.map_(B.lam(x, NAT, B.mod(B.add(B.mul(B.v(x), 7), 3), 101)))


@pytest.fixture(scope="module")
def executor():
    ex = ShardExecutor(n_workers=2)
    yield ex
    ex.close()


@pytest.fixture(scope="module")
def get_prog():
    return compile_nsc(_get_fn())


def test_split_shards_spans():
    assert split_shards(8, 4) == [(0, 2), (2, 2), (4, 2), (6, 2)]
    assert split_shards(10, 4) == [(0, 3), (3, 3), (6, 2), (8, 2)]
    assert split_shards(3, 4) == [(0, 1), (1, 1), (2, 1), (3, 0)]
    assert split_shards(1, 1) == [(0, 1)]
    with pytest.raises(ValueError):
        split_shards(4, 0)


def test_sharded_matches_unsharded_order(executor):
    prog = compile_nsc(_affine_fn())
    batch = [[i, (i * 7) % 23, i + 1] for i in range(37)]  # uneven spans
    expected = prog.run_batch(batch)
    for shards in (1, 2, 3, 5):
        assert executor.run_batch(prog, batch, shards=shards) == expected
    # and through the CompiledProgram front door
    assert prog.run_batch(batch, executor=executor, shards=2) == expected


# batch 8 over 4 shards -> spans (0,2)(2,2)(4,2)(6,2): 0/7 are the global
# edges, 2/3 an interior shard's first/last, 4/5 another interior pair
@pytest.mark.parametrize("bad_index", [0, 2, 3, 4, 5, 7])
def test_trap_at_shard_boundary_is_global(executor, get_prog, bad_index):
    batch = [[i] for i in range(8)]
    batch[bad_index] = []  # get([]) traps
    with pytest.raises(BatchError) as ei:
        executor.run_batch(get_prog, batch, shards=4)
    assert ei.value.index == bad_index
    assert f"batch index {bad_index}" in str(ei.value)

    results = executor.run_batch(get_prog, batch, shards=4, return_exceptions=True)
    assert len(results) == 8
    for i, res in enumerate(results):
        if i == bad_index:
            assert isinstance(res, BatchError) and res.index == bad_index
        else:
            assert res == get_prog.run(batch[i])[0]


@pytest.mark.parametrize("bad_index", [0, 1, 3])
def test_trap_in_size_one_shard(executor, get_prog, bad_index):
    batch = [[i] for i in range(4)]  # 4 over 4 shards: every shard size 1
    batch[bad_index] = [1, 2]
    with pytest.raises(BatchError) as ei:
        executor.run_batch(get_prog, batch, shards=4)
    assert ei.value.index == bad_index


def test_trap_with_empty_remainder_shard(executor, get_prog):
    batch = [[0], [1], [4, 5]]  # 3 over 4 shards: last span is empty
    results = executor.run_batch(get_prog, batch, shards=4, return_exceptions=True)
    assert len(results) == 3
    assert results[0] == get_prog.run([0])[0]
    assert results[1] == get_prog.run([1])[0]
    assert isinstance(results[2], BatchError) and results[2].index == 2


def test_two_traps_raise_smallest_global_index(executor, get_prog):
    batch = [[i] for i in range(8)]
    batch[6] = []  # second shard pair
    batch[1] = []  # first shard: must win
    with pytest.raises(BatchError) as ei:
        executor.run_batch(get_prog, batch, shards=4)
    assert ei.value.index == 1


def test_batch_error_pickles_exactly():
    import pickle

    err = BatchError.at(17, "division by zero")
    back = pickle.loads(pickle.dumps(err))
    assert isinstance(back, BatchError)
    assert back.index == 17
    assert back.cause_text == "division by zero"
    assert str(back) == str(err)
    rebased = back.rebased(100)
    assert rebased.index == 117
    assert "batch index 117" in str(rebased)


def test_executor_serves_multiple_programs(executor):
    affine = compile_nsc(_affine_fn())
    getter = compile_nsc(_get_fn())
    for _ in range(3):  # alternate so the per-worker caches both hit
        batch_a = [[1, 2, 3], [4, 5, 6]]
        assert executor.run_batch(affine, batch_a, shards=2) == affine.run_batch(batch_a)
        batch_g = [[7], [8]]
        assert executor.run_batch(getter, batch_g, shards=2) == getter.run_batch(batch_g)


def test_empty_batch(executor, get_prog):
    assert executor.run_batch(get_prog, [], shards=4) == []


def test_closed_executor_rejects():
    ex = ShardExecutor(n_workers=1)
    ex.close()
    ex.close()  # idempotent
    with pytest.raises(ShardExecutorClosed):
        ex.run_batch(compile_nsc(_get_fn()), [[1]])
    assert ex.respawn_dead() == 0  # a closed pool respawns nothing


def test_default_pool_is_one_worker():
    ex = ShardExecutor()
    try:
        assert ex.n_workers == 1 and len(ex._workers) == 1
    finally:
        ex.close()
    with pytest.raises(ValueError):
        ShardExecutor(n_workers=0)


def test_respawn_dead_replaces_killed_workers(get_prog):
    # the health check between batches: a killed worker is replaced before
    # any batch has to discover the death (and recompute in-parent)
    ex = ShardExecutor(n_workers=2)
    try:
        assert ex.respawn_dead() == 0
        victim = ex._workers[0]
        victim.process.terminate()
        victim.process.join(timeout=5)
        assert ex.respawn_dead() == 1
        agg = ex.metrics_snapshot()["aggregate"]
        assert agg["alive"] == 2 and agg["respawns"] == 1
        batch = [[i] for i in range(4)]
        assert ex.run_batch(get_prog, batch, shards=2) == get_prog.run_batch(batch)
        assert ex.metrics_snapshot()["aggregate"]["fallback_spans"] == 0
    finally:
        ex.close()
    assert ex.leaked_segments == []


def test_dead_worker_with_multiple_pending_spans(get_prog):
    # regression: with more shards than workers, a dead worker owns several
    # spans of one task; ALL of them must be reclaimed before the respawn
    # (reclaiming only the first used to leave the rest pending forever,
    # because the respawned process passes the is_alive() check)
    ex = ShardExecutor(n_workers=1)
    try:
        batch = [[i] for i in range(4)]
        expected = get_prog.run_batch(batch)
        ex._workers[0].process.terminate()
        ex._workers[0].process.join(timeout=5)
        assert ex.run_batch(get_prog, batch, shards=2) == expected
        assert ex.run_batch(get_prog, batch, shards=2) == expected  # respawned
    finally:
        ex.close()


def test_survives_worker_death(executor, get_prog):
    # kill one worker outright: the executor must detect the dead process,
    # recompute its spans in-process, and respawn for the next batch
    victim = executor._workers[0]
    victim.process.terminate()
    victim.process.join(timeout=5)
    batch = [[i] for i in range(6)]
    expected = get_prog.run_batch(batch)
    assert executor.run_batch(get_prog, batch, shards=2) == expected
    assert all(w.process.is_alive() for w in executor._workers)
    # and the respawned worker serves the following batch normally
    assert executor.run_batch(get_prog, batch, shards=2) == expected


# -- the wire format ----------------------------------------------------------


def test_wire_format_keeps_values_and_traps(get_prog):
    ex = ShardExecutor(n_workers=2)
    try:
        batch = [[i] for i in range(8)]
        batch[3] = []  # traps in an interior shard
        results = ex.run_batch(get_prog, batch, shards=4, return_exceptions=True)
        for i, res in enumerate(results):
            if i == 3:
                assert isinstance(res, BatchError) and res.index == 3
            else:
                assert res == get_prog.run(batch[i])[0]
        with pytest.raises(BatchError) as ei:
            ex.run_batch(get_prog, batch, shards=4)
        assert ei.value.index == 3
    finally:
        ex.close()
    assert ex.leaked_segments == []


# the four ways a request can fail to encode: over-wide, negative, wrong
# shape, nested deeper than the recursion limit
UNENCODABLE = [[2**63, 1], [-1, 3], [[1], 2], too_deep()]


@pytest.mark.parametrize(
    "bad", UNENCODABLE, ids=["too_wide", "negative", "wrong_shape", "too_deep"]
)
def test_unencodable_request_fails_alone(bad):
    prog = compile_nsc(_affine_fn())
    batch = [[1, 2, 3], bad, [4, 5, 6], [7]]
    ex = ShardExecutor(n_workers=2)
    try:
        results = ex.run_batch(prog, batch, shards=2, return_exceptions=True)
        assert isinstance(results[1], BatchError) and results[1].index == 1
        for i in (0, 2, 3):
            assert results[i] == prog.run(batch[i])[0]
        # without isolation the caller sees the original exception type
        with pytest.raises(Exception) as ei:
            ex.run_batch(prog, batch, shards=2)
        with pytest.raises(type(ei.value)):
            prog.run(bad)
        assert not isinstance(ei.value, BatchError)
        # a caller error is not an infrastructure failure
        assert sum(w.stats["errors"] + w.stats["fallback_spans"] for w in ex._workers) == 0
    finally:
        ex.close()
    assert ex.leaked_segments == []


def test_kill_during_result_put_does_not_wedge():
    # regression: workers used to share ONE result queue, so a worker killed
    # while its feeder thread was mid-put left a partial frame every later
    # read would block on.  Per-worker queues mean a dead worker's queue is
    # simply never read.  Provoke the old failure: park an oversized result
    # (far beyond the 64KB pipe buffer) in a worker's feeder, kill it
    # mid-write, then prove the executor still serves.
    ex = ShardExecutor(n_workers=2)
    try:
        prog = compile_nsc(_affine_fn())
        key, blob = ex._blob_for(prog)
        victim = ex._workers[0]
        # the result's out-of-band frames (~480 KB) cross the same pipe
        big = prog.encode_batch_fields([from_python(list(range(60_000)))])
        victim.in_q.put((10**9, 0, key, blob, _tp.pack_oob(big), 1, 10_000_000, None))
        time.sleep(1.0)  # let the worker compute and block writing the result
        victim.process.kill()
        victim.process.join(timeout=5)
        batch = [[i, i + 1] for i in range(8)]
        expected = prog.run_batch(batch)
        assert ex.run_batch(prog, batch, shards=2) == expected
        assert all(w.process.is_alive() for w in ex._workers)
        assert ex.run_batch(prog, batch, shards=2) == expected
    finally:
        ex.close()


def _exact(res):
    """A result slot including *which* trap, for comparing two runs of one program."""
    return ("trap", res.index, res.cause_text) if isinstance(res, BatchError) else ("value", res)


def test_bytes_shipped_counts_frames_both_ways():
    # the frames out (each span's input field slices) plus the frames back
    # (each span's output registers), 8 bytes an element, nothing else
    prog = compile_nsc(_affine_fn())
    batch = [[1, 2, 3], [4, 5], [6], [7, 8, 9], []]
    spans = split_shards(len(batch), 2)
    fields = [np.asarray(f, dtype=np.int64) for f in prog.encode_batch_fields(batch)]
    views = prog.split_batch_fields(fields, spans)
    n_in = n_out = 0
    for (_, length), span_views in zip(spans, views):
        n_in += sum(v.size for v in span_views)
        tag, regs = run_batch_fields(prog, span_views, length)
        assert tag == "registers"
        n_out += sum(np.asarray(r).size for r in regs)
    with ShardExecutor(n_workers=1) as ex:
        assert ex.run_batch(prog, batch, shards=2) == prog.run_batch(batch)
        snap = ex.metrics_snapshot()
    shipped = 8 * (n_in + n_out)
    assert snap["aggregate"]["bytes_shipped"] == shipped
    assert snap["segments"] == {"bytes_shipped": shipped}
    assert f'repro_shard_bytes_shipped_total{{worker="0"}} {shipped}' in render_shard_prometheus(snap)


def test_torn_result_is_recomputed_in_parent(get_prog, monkeypatch):
    # a result the parent cannot unpack is an infrastructure failure: the
    # span is recomputed in-process, exactly, and the next batch is clean
    batch = [[i] for i in range(8)]
    batch[5] = []  # the second span traps and comes back as values
    expected = list(map(_exact, get_prog.run_batch(batch, return_exceptions=True)))
    ex = ShardExecutor(n_workers=2)
    try:
        real, calls = shard_mod.unpack_oob, []

        def torn_once(meta, frames):
            calls.append(len(frames))
            if len(calls) == 1:
                raise pickle.UnpicklingError("truncated frame")
            return real(meta, frames)

        # the workers are already forked: only the parent's reader is torn
        monkeypatch.setattr(shard_mod, "unpack_oob", torn_once)
        for _ in range(2):
            got = ex.run_batch(get_prog, batch, shards=2, return_exceptions=True)
            assert list(map(_exact, got)) == expected
            agg = ex.metrics_snapshot()["aggregate"]
            assert (agg["errors"], agg["fallback_spans"], agg["respawns"]) == (1, 1, 0)
        assert len(calls) == 2  # one register result per batch reached the parent
    finally:
        ex.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the injected fault reaches the workers by fork",
)
def test_worker_error_is_recomputed_in_parent(monkeypatch):
    # a worker-side infrastructure failure (not an input trap) answers with
    # an error status; the parent recomputes that span, exactly
    sentinel = compile_nsc(_get_fn())
    clean = compile_nsc(_affine_fn())
    real = shard_mod.run_batch_fields

    def failing(prog, *args, **kwargs):
        if prog.instructions == sentinel.instructions:
            raise RuntimeError("injected worker fault")
        return real(prog, *args, **kwargs)

    monkeypatch.setattr(shard_mod, "run_batch_fields", failing)
    batch = [[i] for i in range(8)]
    batch[2] = batch[6] = []  # an interior trap in each span
    expected = list(map(_exact, sentinel.run_batch(batch, return_exceptions=True)))
    ex = ShardExecutor(n_workers=2)  # forks with the fault in place
    try:
        got = ex.run_batch(sentinel, batch, shards=2, return_exceptions=True)
        assert list(map(_exact, got)) == expected
        agg = ex.metrics_snapshot()["aggregate"]
        assert (agg["errors"], agg["fallback_spans"], agg["respawns"]) == (2, 2, 0)
        values = [[1, 2], [3], [4, 5, 6], [7]]
        assert ex.run_batch(clean, values, shards=2) == clean.run_batch(values)
        agg = ex.metrics_snapshot()["aggregate"]
        assert (agg["errors"], agg["fallback_spans"], agg["respawns"]) == (2, 2, 0)
    finally:
        ex.close()


def test_spawn_workers_keep_traps_and_never_touch_the_env_cache(tmp_path, monkeypatch):
    # where the platform has no fork, workers are spawned: they import
    # everything afresh and see only what their messages carry — the
    # program, so nothing sends them to REPRO_CACHE_DIR
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
    prog = compile_nsc(_get_fn(), cache=None)
    batch = [[i] for i in range(8)]
    batch[3] = []  # traps in an interior span
    expected = list(map(_exact, prog.run_batch(batch, return_exceptions=True)))
    bogus = tmp_path / "bogus-env-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(bogus))
    ex = ShardExecutor(n_workers=1)
    try:
        assert ex._ctx.get_start_method() == "spawn"
        got = ex.run_batch(prog, batch, shards=4, return_exceptions=True)
        assert list(map(_exact, got)) == expected
        with pytest.raises(BatchError) as ei:
            ex.run_batch(prog, batch, shards=4)
        assert ei.value.index == 3
        stats = ex._workers[0].stats
        assert (stats["need_prog"], stats["errors"], stats["fallback_spans"]) == (0, 0, 0)
    finally:
        ex.close()
    assert not bogus.exists(), "a worker read REPRO_CACHE_DIR from its environment"


# -- what a worker receives ---------------------------------------------------


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched compiler reaches the workers by fork",
)
def test_workers_never_compile(monkeypatch):
    # the parent ships each program as it runs; a worker that compiled
    # anything would hit the patched compiler, answer with an error, and
    # have its span recomputed in the parent
    import repro.compiler

    prog = compile_nsc(_affine_fn())
    batch = [[i, i + 1, (i * 5) % 7] for i in range(8)]
    expected = prog.run_batch(batch)

    def no_compiles(*args, **kwargs):
        raise RuntimeError("a shard worker compiled")

    monkeypatch.setattr(repro.compiler, "compile_nsc", no_compiles)
    ex = ShardExecutor(n_workers=2)  # forks with the patch in place
    try:
        assert ex.run_batch(prog, batch, shards=2) == expected
        agg = ex.metrics_snapshot()["aggregate"]
        assert (agg["errors"], agg["fallback_spans"]) == (0, 0)
    finally:
        ex.close()


def test_one_compile_serves_every_path(monkeypatch):
    # run, run_batch, a Server lane and a sharded batch all execute the
    # program compile_nsc returned: none of them compiles another one
    import asyncio
    import os

    import repro.compiler
    from repro.serving import Server
    from repro.serving import scheduler as scheduler_mod

    prog = compile_nsc(_affine_fn(), cache=None)
    calls = []

    def counting(*args, **kwargs):
        calls.append(os.getpid())
        raise RuntimeError("compile_nsc called after the first compile")

    monkeypatch.setattr(repro.compiler, "compile_nsc", counting)
    monkeypatch.setattr(scheduler_mod, "compile_nsc", counting)
    batch = [[i, (i * 5) % 7] for i in range(6)]
    expected = [prog.run(v)[0] for v in batch]
    assert prog.run_batch(batch) == expected
    assert prog._batch_fallback_error is None

    async def serve():
        server = Server()
        try:
            return await asyncio.gather(*(server.submit(prog, v) for v in batch))
        finally:
            await server.close()

    assert asyncio.run(serve()) == expected
    with ShardExecutor() as ex:  # forks with the patch in place
        assert prog.run_batch(batch, executor=ex) == expected
        agg = ex.metrics_snapshot()["aggregate"]
        assert (agg["errors"], agg["fallback_spans"]) == (0, 0)
        # a worker receives the program alone, exactly as it runs here
        shipped = pickle.loads(ex._blob_for(prog)[1])
        assert type(shipped) is type(prog) and shipped.instructions == prog.instructions
    assert calls == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the smaller worker cache reaches the workers by fork",
)
def test_need_prog_resends_an_evicted_program(monkeypatch):
    # the worker keeps 2 programs by LRU: after A, B, A, C it holds A and C.
    # The parent keeps its full bound (restored after the fork), so it still
    # lists B as shipped; B's two spans go out blob-less, both come back as
    # need_prog, and the blob is resent once.  With the parent at 2 as
    # well, its program table would drop B too and re-ship it under a
    # fresh key, never asking.
    full = shard_mod._WORKER_CACHE_SIZE
    monkeypatch.setattr(shard_mod, "_WORKER_CACHE_SIZE", 2)
    ex = ShardExecutor(n_workers=1)  # forks with the smaller cache
    monkeypatch.setattr(shard_mod, "_WORKER_CACHE_SIZE", full)
    try:
        fns = {"A": _affine_fn, "B": _get_fn, "C": _affine_fn}
        progs = {name: compile_nsc(fn()) for name, fn in fns.items()}
        batches = {"A": [[1, 2], [3]], "B": [[4], [5]], "C": [[6, 7, 8], []]}
        for name in "ABACBB":  # the last B finds the resent blob in place
            prog, batch = progs[name], batches[name]
            assert ex.run_batch(prog, batch, shards=2) == prog.run_batch(batch)
        agg = ex.metrics_snapshot()["aggregate"]
        assert (agg["need_prog"], agg["errors"], agg["fallback_spans"]) == (1, 0, 0)
    finally:
        ex.close()
