"""The async front door: batching behaviour, backpressure, isolation, metrics."""

from __future__ import annotations

import asyncio
import copy
import threading

import pytest

from fuzz_gen import too_deep
from repro.compiler import BatchError, compile_nsc
from repro.nsc import builder as B
from repro.nsc.types import NAT, SeqType
from repro.serving import (
    Server,
    ServerClosed,
    ServerOverloaded,
    ShardExecutor,
    SLOConfig,
)


@pytest.fixture(autouse=True)
def _queue_depth_gauge_drains():
    """Every server a test closes must leave the queue_depth gauge at zero.

    The gauge is refreshed on submit, dispatch, rejection and close-drain;
    any path that forgets one of those shows up here as drift — the regression
    this fixture pins is close()/try_submit leaving stale depth behind.
    """
    created: list[Server] = []
    orig_init = Server.__init__

    def tracking_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        created.append(self)

    Server.__init__ = tracking_init
    try:
        yield
    finally:
        Server.__init__ = orig_init
    for srv in created:
        if srv._closed:
            assert srv.metrics.queue_depth == 0, "queue_depth gauge drifted"


def _affine_fn():
    x = B.gensym("x")
    return B.map_(B.lam(x, NAT, B.mod(B.add(B.mul(B.v(x), 7), 3), 101)))


def _get_fn():
    """``get(xs)``: traps unless the input is a singleton sequence."""
    x = B.gensym("x")
    return B.lam(x, SeqType(NAT), B.get_(B.v(x)))


@pytest.fixture(scope="module")
def affine_prog():
    return compile_nsc(_affine_fn())


class _Gate:
    """A copy of a program whose first ``run_batch`` blocks until released.

    The stand-in runs on the server's executor thread, so a test can hold a
    batch "executing" for as long as it likes and observe the lane around it
    without sleeping.
    """

    def __init__(self, prog):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.sizes: list[int] = []

        def gated(values, **kwargs):
            self.sizes.append(len(values))
            self.entered.set()
            assert self.release.wait(10), "the test never released the batch"
            return prog.run_batch(values, **kwargs)

        self.prog = copy.copy(prog)
        self.prog.run_batch = gated

    async def executing(self, srv) -> None:
        """The lone request just submitted is on the executor: no timer was armed."""
        for _ in range(3):
            await asyncio.sleep(0)
        lane = next(iter(srv._lanes.values()))
        assert lane.busy and lane.queue.empty()
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.entered.wait, 10)


def test_submit_batches_and_matches_run(affine_prog):
    requests = [[i, i + 1, (i * 13) % 97] for i in range(100)]
    expected = [affine_prog.run(v)[0] for v in requests]

    async def main():
        async with Server(max_batch=16) as srv:
            results = await asyncio.gather(
                *(srv.submit(affine_prog, v) for v in requests)
            )
            return srv, results

    srv, results = asyncio.run(main())
    assert results == expected
    m = srv.metrics
    assert m.submitted == m.completed == 100
    assert m.failed == 0 and m.rejected == 0
    # micro-batching actually engaged: far fewer batches than requests,
    # and no batch above the knob
    assert m.batches < 100
    assert max(m.batch_sizes) <= 16
    assert sum(size * n for size, n in m.batch_sizes.items()) == 100
    assert m.queue_depth == 0


def test_single_request_dispatches_at_once(affine_prog):
    async def main():
        gate = _Gate(affine_prog)
        async with Server(max_batch=64) as srv:
            fut = srv.try_submit(gate.prog, [1, 2, 3])
            await gate.executing(srv)
            gate.release.set()
            return srv, await fut

    srv, result = asyncio.run(main())
    assert result == affine_prog.run([1, 2, 3])[0]
    assert dict(srv.metrics.batch_sizes) == {1: 1}


@pytest.mark.parametrize("backlog,sizes", [(3, [1, 3]), (4, [1, 4]), (9, [1, 4, 4, 1])])
def test_backlog_behind_a_running_batch_is_the_next_batch(affine_prog, backlog, sizes):
    requests = [[i, i + 1] for i in range(backlog + 1)]

    async def main():
        gate = _Gate(affine_prog)
        async with Server(max_batch=4) as srv:
            futs = [srv.try_submit(gate.prog, requests[0])]
            await gate.executing(srv)
            futs += [srv.try_submit(gate.prog, v) for v in requests[1:]]
            gate.release.set()
            return gate, srv, await asyncio.gather(*futs)

    gate, srv, results = asyncio.run(main())
    assert results == [affine_prog.run(v)[0] for v in requests]
    assert gate.sizes == sizes
    assert sorted(srv.metrics.batch_sizes.elements()) == sorted(sizes)


@pytest.mark.parametrize(
    "make_fn,bad",
    [
        pytest.param(_get_fn, [1, 2, 3], id="trap"),  # get of a length-3 sequence
        pytest.param(_affine_fn, [2**63, 1], id="too_wide"),
        pytest.param(_affine_fn, [-1, 3], id="negative"),
        pytest.param(_affine_fn, [[1], 2], id="wrong_shape"),
        pytest.param(_affine_fn, too_deep(), id="too_deep"),
    ],
)
def test_trap_isolation_per_request(make_fn, bad):
    prog = compile_nsc(make_fn())
    requests = [[i] for i in range(12)]
    requests[5] = bad

    async def main():
        async with Server(max_batch=32) as srv:
            results = await asyncio.gather(
                *(srv.submit(prog, v) for v in requests), return_exceptions=True
            )
            return srv, results

    srv, results = asyncio.run(main())
    for i, res in enumerate(results):
        if i == 5:
            assert isinstance(res, BatchError)
        else:
            assert res == prog.run(requests[i])[0]
    assert srv.metrics.completed == 11
    assert srv.metrics.failed == 1


def test_try_submit_backpressure(affine_prog):
    async def main():
        srv = Server(max_batch=4, max_queue=4)
        futs = []
        # no await between try_submit calls, so the drainer never runs and
        # the bounded queue must overflow deterministically at request 5
        with pytest.raises(ServerOverloaded):
            for _ in range(10):
                futs.append(srv.try_submit(affine_prog, [1, 2]))
        assert len(futs) == 4
        results = await asyncio.gather(*futs)
        assert srv.metrics.rejected == 1
        await srv.close()
        return results

    results = asyncio.run(main())
    expected = affine_prog.run([1, 2])[0]
    assert results == [expected] * 4


def test_submit_blocks_instead_of_rejecting(affine_prog):
    requests = [[i] for i in range(30)]
    expected = [affine_prog.run(v)[0] for v in requests]

    async def main():
        # queue bound far below the request count: submit() must wait for
        # slots (backpressure), never raise
        async with Server(max_batch=4, max_queue=2) as srv:
            results = await asyncio.gather(
                *(srv.submit(affine_prog, v) for v in requests)
            )
            assert srv.metrics.rejected == 0
            return results

    assert asyncio.run(main()) == expected


def test_submit_after_close_raises(affine_prog):
    async def main():
        srv = Server()
        await srv.submit(affine_prog, [1])
        await srv.close()
        with pytest.raises(ServerClosed):
            await srv.submit(affine_prog, [2])

    asyncio.run(main())


def test_close_fails_queued_requests(affine_prog):
    async def main():
        gate = _Gate(affine_prog)
        srv = Server(max_batch=2)
        running = srv.try_submit(gate.prog, [1, 2])
        await gate.executing(srv)
        queued = [srv.try_submit(gate.prog, [i]) for i in range(3)]
        closing = asyncio.create_task(srv.close())
        await asyncio.sleep(0)
        gate.release.set()
        await closing
        # the batch on the executor delivered; what was only queued did not run
        assert await running == affine_prog.run([1, 2])[0]
        for fut in queued:
            with pytest.raises(ServerClosed):
                await fut
        assert gate.sizes == [1]

    asyncio.run(main())


def test_close_with_a_second_lane_waiting_for_the_thread(affine_prog):
    # one executor thread, lane A's batch holds it: lane B's first request is
    # already dispatched (taken, so delivered), its later ones are only queued
    # and must not run after close()
    async def main():
        gate_a, gate_b = _Gate(affine_prog), _Gate(compile_nsc(_affine_fn()))
        gate_b.release.set()
        srv = Server(max_batch=8, worker_threads=1)
        fut_a = srv.try_submit(gate_a.prog, [1])
        await gate_a.executing(srv)
        taken = srv.try_submit(gate_b.prog, [2])
        await asyncio.sleep(0)  # B's drainer dispatches it behind A's batch
        queued = [srv.try_submit(gate_b.prog, [i]) for i in range(3)]
        closing = asyncio.create_task(srv.close())
        await asyncio.sleep(0)
        gate_a.release.set()
        await closing
        assert await fut_a == affine_prog.run([1])[0]
        assert await taken == affine_prog.run([2])[0]
        for fut in queued:
            with pytest.raises(ServerClosed):
                await fut
        assert gate_b.sizes == [1]

    asyncio.run(main())


def test_close_waits_for_in_flight_batch(affine_prog):
    # a batch already on the executor thread must deliver its results even
    # if close() lands mid-execution, and close() must not return before it
    async def main():
        gate = _Gate(affine_prog)
        srv = Server(max_batch=1)
        task = asyncio.create_task(srv.submit(gate.prog, [3, 4]))
        await gate.executing(srv)
        closing = asyncio.create_task(srv.close())
        for _ in range(5):
            await asyncio.sleep(0)
        assert not closing.done() and not task.done()
        gate.release.set()
        await closing
        assert task.done()
        return await task

    assert asyncio.run(main()) == affine_prog.run([3, 4])[0]


def test_removed_knobs_are_refused():
    # no alias, no deprecation path: the options are gone (the batching
    # window's name is spelled in halves so a grep for it finds only history)
    window = {"max_" + "delay_ms": 2.0}
    with pytest.raises(TypeError):
        Server(**window)
    with pytest.raises(TypeError):
        Server(backend="fused")  # one untraced tier: nothing to select
    with pytest.raises(TypeError):
        SLOConfig(target_p99_ms=10.0, window=64)
    with pytest.raises(ValueError):
        ShardExecutor(n_workers=1, transport="pickle")


def test_sharding_knobs_are_refused():
    # one serving level: no shard pool attaches to a server; a sharded
    # batch is prog.run_batch(values, executor=pool)
    for knob in ("executor", "shards", "shard_threshold"):
        with pytest.raises(TypeError):
            Server(**{knob: None})
    with pytest.raises(TypeError):
        Server(max_batch=64, shard_threshold=256)


def test_accepts_uncompiled_function():
    fn = _affine_fn()
    reference = compile_nsc(fn)

    async def main():
        async with Server(max_batch=8) as srv:
            return await asyncio.gather(
                *(srv.submit(fn, [i, i + 2]) for i in range(10))
            )

    results = asyncio.run(main())
    assert results == [reference.run([i, i + 2])[0] for i in range(10)]


def test_idle_lanes_evicted_at_max_programs():
    progs = [compile_nsc(_affine_fn()) for _ in range(4)]
    expected = [p.run([3, 1])[0] for p in progs]

    async def main():
        async with Server(max_batch=4, max_programs=2) as srv:
            for rounds in range(2):  # revisit evicted programs: still correct
                for p, exp in zip(progs, expected):
                    # the lane is at rest again by the time its result is seen
                    assert await srv.submit(p, [3, 1]) == exp
            assert len(srv._lanes) <= 2
            assert srv.metrics.completed == 8

    asyncio.run(main())


def test_metrics_snapshot_shape(affine_prog):
    async def main():
        async with Server(max_batch=8) as srv:
            await asyncio.gather(*(srv.submit(affine_prog, [i]) for i in range(20)))
            return srv.metrics

    metrics = asyncio.run(main())
    snap = metrics.snapshot()
    assert snap["submitted"] == snap["completed"] == 20
    assert snap["p50_latency_s"] is not None
    assert snap["p99_latency_s"] >= snap["p50_latency_s"]
    assert snap["requests_per_sec"] > 0
    assert snap["queue_depth"] == 0
    assert sum(snap["batch_size_hist"].values()) == snap["batches"]
    assert metrics.latency_percentile(0.0) <= metrics.latency_percentile(100.0)
    with pytest.raises(ValueError):
        metrics.latency_percentile(101.0)


def test_requests_per_sec_not_inflated_by_startup(monkeypatch):
    # regression: right after startup the rate divided one completion by a
    # microsecond-scale server age -- 50us after boot, one finished request
    # reported as ~20,000 req/s.  A fake clock pins the exact arithmetic.
    from repro.serving.metrics import ServerMetrics

    now = [1000.0]
    m = ServerMetrics(clock=lambda: now[0])
    assert m.requests_per_sec() == 0.0  # no completions, no rate

    now[0] += 50e-6  # one request, 50 microseconds in
    m.observe_request(40e-6, ok=True)
    assert m.requests_per_sec() == pytest.approx(1.0)  # not 20,000

    # a lone completion never reports more than n/1s, however young the server
    now[0] += 0.5
    assert m.requests_per_sec() == pytest.approx(1.0)

    # with age past the guard the honest windowed rate comes through
    for _ in range(9):
        m.observe_request(1e-3, ok=True)
    now[0] += 4.5  # server age now ~5.0s, 10 completions in the window
    assert m.requests_per_sec() == pytest.approx(10 / 5.0, rel=1e-3)
