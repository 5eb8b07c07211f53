"""Admission control: the live per-lane cost fit, rejection, isolation."""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import random
import time

import pytest

from fuzz_gen import DOMAINS, _gen_input
from repro.compiler import compile_nsc
from repro.nsc import builder as B
from repro.nsc.lib import reduce_add
from repro.nsc.types import NAT
from repro.nsc.values import from_python
from repro.serving import AdmissionRejected, LaneController, Server, SLOConfig
from repro.serving.slo import request_size


def _affine_fn():
    x = B.gensym("x")
    return B.map_(B.lam(x, NAT, B.mod(B.add(B.mul(B.v(x), 7), 3), 101)))


# ---------------------------------------------------------------------------
# config + sizing


def test_config_validation():
    with pytest.raises(ValueError):
        SLOConfig(target_p99_ms=0)
    with pytest.raises(ValueError):
        SLOConfig(target_p99_ms=10, mode="drop")
    with pytest.raises(ValueError):
        SLOConfig(target_p99_ms=10, admit_factor=0.5)
    assert [f.name for f in dataclasses.fields(SLOConfig)] == [
        "target_p99_ms", "mode", "admit_factor",
    ]


def test_request_size_matches_value_size():
    payload = [[1, 2], [3], []]
    assert request_size(from_python(payload)) == float(from_python(payload).size)
    assert request_size(7) == 1.0
    assert request_size([1, 2, 3]) == 4.0  # the node + three scalars


def test_request_size_is_one_unit_for_plain_data_and_s_objects():
    # a lane fed both forms must fit one unit: (1, 2, 3) is two pair nodes
    # (was 4, not 5), True is an injection of () (was 1, not 2)
    rng = random.Random(7)
    payloads = [
        _gen_input(rng, dom, edge) for dom in DOMAINS for edge in (True, False) for _ in range(20)
    ]
    payloads += [
        (1, 2, 3), True, False, None, (None, True), [], [[]], [[True, False], []],
        [(1, (2, 3)), (4, 5, 6)], ([1, 2], (3, [4])), [from_python((1, 2)), 3],
    ]
    for x in payloads:
        assert request_size(x) == float(from_python(x).size), x
    # what no S-object spells is still priced (it fails later, at encode)
    assert request_size([1.5, "ab"]) == 3.0 and request_size((1,)) == 2.0


def test_request_size_deep_no_recursion_error():
    deep: list = [1]
    for _ in range(5000):
        deep = [deep]
    assert request_size(deep) == 5002.0


# ---------------------------------------------------------------------------
# the live fit, in isolation


def _warm_controller(cfg: SLOConfig) -> LaneController:
    """A controller past its lane's first batch, which the fit never sees:
    that one pays the lazy plan build."""
    ctrl = LaneController(cfg)
    ctrl.note_batch(1, 10.0, 30.0)  # a 30 s "cold" wall
    assert ctrl.snapshot()["batches"] == 0
    return ctrl


def test_fit_recovers_depth_and_work_terms():
    """wall = a + b * sum(size): ``T'`` is paid once per batch, ``W'`` per element."""
    a, b = 2e-4, 1e-6
    ctrl = _warm_controller(SLOConfig(target_p99_ms=10.0))
    for count in (1, 4, 16, 4, 8):
        total = 10.0 * count
        ctrl.note_batch(count, total, a + b * total)
    assert ctrl.base_s == pytest.approx(a) and ctrl.per_size_s == pytest.approx(b)
    assert ctrl.mean_size == pytest.approx(10.0)
    value = [0] * 9  # request_size == 10
    single = ctrl.predict_request_s(request_size(value))
    assert single == pytest.approx(a + 10 * b)
    # batching genuinely modelled cheaper: four requests share one depth term
    assert a + b * 40 < 4 * single
    assert ctrl.classify(request_size(value)) is None
    assert ctrl.classify(request_size([0] * 20_000)) == "reject"  # 20ms alone: over the target


def test_fit_window_is_bounded():
    # 100 batches of an old, 10x dearer regime, then 64 of the current one:
    # the old ones have left the running sums, not just the deque
    a, b = 2e-4, 1e-6
    ctrl = _warm_controller(SLOConfig(target_p99_ms=10.0))
    for i in range(100):
        ctrl.note_batch(1, 1.0 + i % 7, 10 * (a + b * (1.0 + i % 7)))
    for i in range(64):
        ctrl.note_batch(1, 1.0 + i % 7, a + b * (1.0 + i % 7))
    assert ctrl.snapshot()["batches"] == 64
    assert ctrl.base_s == pytest.approx(a, rel=1e-6)
    assert ctrl.per_size_s == pytest.approx(b, rel=1e-6)


def test_unfitted_controller_admits_everything():
    # nothing timed, only the cold batch, one warm sample: no verdict yet
    ctrl = LaneController(SLOConfig(target_p99_ms=10.0))
    for _ in range(3):
        assert ctrl.predict_request_s(4.0) is None
        assert ctrl.classify(10_001.0) is None
        ctrl.note_batch(1, 4.0, 1.0)
    assert ctrl.classify(4.0) == "reject"  # two warm 1 s batches


@pytest.mark.parametrize(
    "batches",
    [
        pytest.param([(4, 20.0, 2e-3)] * 3, id="equal_sizes"),
        # timer noise: the larger batch measured faster, the slope comes out negative
        pytest.param([(4, 20.0, 2e-3), (8, 40.0, 1e-3)], id="negative_slope"),
    ],
)
def test_degenerate_fit_falls_back_to_size_pricing(batches):
    # a fit that cannot separate the two terms, or prices size at <= 0, must
    # not be accepted as-is (predictions would never scale with size —
    # admission silently off).  The fallback prices the whole measured wall
    # on size, which is conservative for big requests.
    ctrl = _warm_controller(SLOConfig(target_p99_ms=50.0, admit_factor=8.0))
    for batch in batches:
        ctrl.note_batch(*batch)
    assert ctrl.base_s == 0.0 and ctrl.per_size_s > 0.0
    small = ctrl.predict_request_s(5.0)
    big = ctrl.predict_request_s(1001.0)
    assert big > 8.0 * small  # predictions scale with request size
    assert ctrl.classify(1001.0) == "reject"
    assert ctrl.classify(5.0) is None


# ---------------------------------------------------------------------------
# integration: admission control


def test_admission_rejects_predicted_expensive_outlier():
    fn = reduce_add()

    async def main():
        slo = SLOConfig(target_p99_ms=50.0, admit_factor=8.0)
        async with Server(max_batch=32, slo=slo, cache=None) as srv:
            small = [list(range(8)) for _ in range(16)]
            # the cold batch, then two of distinct total size: the lane's
            # fit has a slope
            for batch in (small[:2], small, small[:4]):
                outs = await asyncio.gather(*(srv.submit(fn, v) for v in batch))
                assert all(str(o) == "28" for o in outs)
            (lane,) = srv._lanes.values()
            assert lane.ctrl.snapshot()["batches"] == 2
            with pytest.raises(AdmissionRejected):
                await srv.submit(fn, list(range(500_000)))
            # siblings keep flowing, exactly
            outs = await asyncio.gather(*(srv.submit(fn, v) for v in small[:4]))
            assert all(str(o) == "28" for o in outs)
            _, body = await srv.metrics_endpoint("prometheus")
            return srv, body

    srv, body = asyncio.run(main())
    assert srv.metrics.admission_rejected == 1
    assert srv.metrics.admission_isolated == 0
    assert "repro_server_admission_rejected_total 1" in body


def test_cold_lane_does_not_lock_itself_out():
    # The lane's first batch pays the lazy plan build.  With a
    # target between the cold and the warm wall, learning from that batch
    # would reject all later same-size traffic — and in reject mode nothing
    # would ever run again to correct the fit.
    prog = copy.copy(compile_nsc(_affine_fn()))
    run_batch, walls = prog.run_batch, iter([0.15])

    def cold_then_warm(values, **kwargs):
        time.sleep(next(walls, 0.0))  # stands in for the one-off plan build
        return run_batch(values, **kwargs)

    prog.run_batch = cold_then_warm

    async def main():
        async with Server(slo=SLOConfig(target_p99_ms=100.0), cache=None) as srv:
            for i in range(40):
                assert str(await srv.submit(prog, [i])) == f"[{(i * 7 + 3) % 101}]"
            (lane,) = srv._lanes.values()
            return srv, lane.ctrl

    srv, ctrl = asyncio.run(main())
    assert srv.metrics.admission_rejected == 0 and srv.metrics.completed == 40
    assert ctrl.snapshot()["batches"] == 39
    assert ctrl.predict_request_s(2.0) < 0.05


def test_admission_isolates_instead_when_configured():
    fn = reduce_add()
    big = list(range(50_000))

    async def main():
        slo = SLOConfig(target_p99_ms=50.0, admit_factor=8.0, mode="isolate")
        async with Server(max_batch=32, slo=slo, cache=None) as srv:
            small = [list(range(8)) for _ in range(16)]
            for batch in (small[:2], small, small[:4]):
                outs = await asyncio.gather(*(srv.submit(fn, v) for v in batch))
                assert all(str(o) == "28" for o in outs)
            out_big, *out_small = await asyncio.gather(
                srv.submit(fn, big), *(srv.submit(fn, v) for v in small[:4])
            )
            # the outlier still ran (exactly), in its own lane
            assert str(out_big) == str(sum(big))
            assert all(str(o) == "28" for o in out_small)
            iso_lanes = [k for k in srv._lanes if isinstance(k, tuple)]
            assert len(iso_lanes) == 1
            # isolation lanes never feed the cost model siblings are priced by
            assert srv._lanes[iso_lanes[0]].ctrl is None
            (ctrl,) = [l.ctrl for l in srv._lanes.values() if l.ctrl is not None]
            assert ctrl.mean_size == pytest.approx(9.0)
            _, body = await srv.metrics_endpoint("json")
            return srv, body

    srv, body = asyncio.run(main())
    assert srv.metrics.admission_isolated == 1
    assert srv.metrics.admission_rejected == 0
    assert '"admission_isolated": 1' in body and '"slo_lanes"' in body


def test_slo_off_admits_everything():
    fn = _affine_fn()

    async def main():
        async with Server(max_batch=8, cache=None) as srv:
            outs = await asyncio.gather(
                *(srv.submit(fn, [i]) for i in range(20))
            )
            lane = next(iter(srv._lanes.values()))
            assert lane.ctrl is None
            _, body = await srv.metrics_endpoint("json")
            assert "slo_lanes" not in body
            return outs

    outs = asyncio.run(main())
    assert [str(o) for o in outs] == [f"[{(i * 7 + 3) % 101}]" for i in range(20)]
