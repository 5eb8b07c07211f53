"""Observability: span tracer, exact T'/W' attribution, Prometheus export.

The load-bearing test here is the differential battery: every suite()
program, on every input, at opt 0 and 2, must profile to per-block T'/W' sums that are *bit-identical* to the
machine totals of a plain run — on success, on traps, and on mid-block
step-budget exhaustion.  The tracer tests pin the disabled path to a
shared no-op (the ≤2% overhead gate), and the export tests pin the
Prometheus text format with a golden snapshot.
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter

import pytest

from repro.bvram import BVRAM, BVRAMError, isa
from repro.compiler import CompiledProgram, compile_nsc
from repro.compiler.difftest import suite
from repro.nsc import builder as B
from repro.nsc.types import NAT, SeqType
from repro.obs import (
    Trace,
    aggregate_worker_metrics,
    cost_check,
    current,
    render_prometheus,
    render_shard_prometheus,
    span,
)
from repro.obs.export import escape_label_value
from repro.obs.profile import meta_for, profile_run
from repro.obs.trace import NULL_SPAN, activate, instant
from repro.serving import Server
from repro.serving.metrics import ServerMetrics


def _affine_fn():
    x = B.gensym("x")
    return B.map_(B.lam(x, NAT, B.mod(B.add(B.mul(B.v(x), 7), 3), 101)))


def _get_fn():
    """``get(xs)``: traps unless the input is a singleton sequence."""
    x = B.gensym("x")
    return B.lam(x, SeqType(NAT), B.get_(B.v(x)))


def _collatz_prog(opt_level: int = 2):
    for name, fn, _inputs in suite():
        if name == "collatz_steps":
            return compile_nsc(fn, opt_level=opt_level)
    raise AssertionError("collatz_steps missing from the battery")


#: the untraced engine, named in the test ids; ``fused`` is the only one
UNTRACED = ["fused"]


def _plain(prog, value, max_steps=10_000_000):
    """An untraced run's outcome: (status, error, T', W', decoded value)."""
    machine = BVRAM(prog.n_registers)
    try:
        res = machine.run(
            prog, prog.encode_input(value), max_steps=max_steps, record_trace=False
        )
    except BVRAMError as e:
        return ("err", str(e), machine.time, machine.work, None)
    return ("ok", None, res.time, res.work, prog.decode_output(res.registers))


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_span_disabled_is_shared_noop():
    assert current() is None
    s = span("anything", "cat", k=1)
    assert s is NULL_SPAN
    with s as sp:
        sp.note(dropped=True)  # same surface as a live span
    instant("also-dropped")  # no-op, must not raise


def test_trace_records_spans_and_instants():
    with Trace() as tr:
        assert current() is tr
        with span("work", "test", a=1) as sp:
            sp.note(b=2)
        instant("mark", "test", c=3)
    assert current() is None
    events = tr.events()
    assert len(tr) == 2 and len(events) == 2
    complete = next(e for e in events if e["ph"] == "X")
    assert complete["name"] == "work"
    assert complete["cat"] == "test"
    assert complete["args"] == {"a": 1, "b": 2}
    assert complete["ts"] >= 0.0 and complete["dur"] >= 0.0
    inst = next(e for e in events if e["ph"] == "i")
    assert inst["name"] == "mark" and inst["args"] == {"c": 3}


def test_span_records_error_on_exception():
    with Trace() as tr:
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("kaput")
    (event,) = tr.events()
    assert "RuntimeError" in event["args"]["error"]
    assert "kaput" in event["args"]["error"]


def test_nested_activation_innermost_wins():
    outer, inner = Trace(), Trace()
    with outer:
        with inner:
            assert current() is inner
            with span("x"):
                pass
        assert current() is outer
    assert current() is None
    assert len(inner) == 1 and len(outer) == 0


def test_activate_publishes_existing_trace():
    tr = Trace()
    with activate(tr):
        assert current() is tr
        with span("carried"):
            pass
    assert current() is None
    assert [e["name"] for e in tr.events()] == ["carried"]
    with activate(None):  # no-op activation
        assert current() is None


def test_export_chrome_format(tmp_path):
    with Trace() as tr:
        with span("stage", "test", n=7):
            pass
    path = tr.export_chrome(str(tmp_path / "trace.json"))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["displayTimeUnit"] == "ms"
    (event,) = payload["traceEvents"]
    assert event["ph"] == "X"
    assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(event)
    assert event["args"] == {"n": 7}


def test_compile_pipeline_emits_stage_spans():
    with Trace() as tr:
        compile_nsc(_affine_fn(), opt_level=2)
    by_name = {e["name"]: e for e in tr.events()}
    assert {
        "compile/nsa",
        "compile/optimize",
        "compile/flatten",
        "compile/codegen",
    } <= set(by_name)
    assert by_name["compile/nsa"]["args"]["nsa_size"] > 0
    assert by_name["compile/flatten"]["args"]["instructions"] > 0
    assert by_name["compile/codegen"]["args"]["registers"] > 0
    # opt 0 skips the optimize stage
    with Trace() as tr0:
        compile_nsc(_affine_fn(), opt_level=0)
    assert "compile/optimize" not in {e["name"] for e in tr0.events()}


def test_run_batch_emits_serving_spans():
    prog = compile_nsc(_affine_fn())
    prog.run_batch([[0]])  # the plan build is not this test's subject
    with Trace() as tr:
        prog.run_batch([[1, 2, 3], [4, 5], []])
    # plain requests are marshalled inside batch/encode: exactly these three
    # spans, in this order (test_typed_ingest shows nothing is marshalled
    # outside them — there is no from_python call to be outside)
    names = [e["name"] for e in tr.events()]
    assert names == ["batch/encode", "batch/execute", "batch/decode"]
    execute = next(e for e in tr.events() if e["name"] == "batch/execute")
    assert execute["args"]["batch"] == 3
    assert execute["args"]["time"] > 0 and execute["args"]["work"] > 0


# ---------------------------------------------------------------------------
# profiler: the bit-identical attribution battery (acceptance criterion)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("opt_level", [0, 2])
def test_profile_attribution_bit_identical_battery(opt_level):
    """Per-block T'/W' sums == machine totals on every program x input."""
    for name, fn, inputs in suite():
        prog = compile_nsc(fn, opt_level=opt_level)
        for value in inputs:
            status, err, t, w, decoded = _plain(prog, value)
            report = prog.profile(value)
            ctx = (name, opt_level, value)
            assert report.verify_totals(), ctx
            assert (report.time, report.work) == (t, w), ctx
            if status == "ok":
                assert report.error is None, ctx
                assert report.result == decoded, ctx
            else:
                assert report.error == err, ctx


@pytest.mark.parametrize("engine", UNTRACED)
def test_profile_hits_per_entry_on_a_while_program(engine):
    """Per-entry hit counts of the collatz loop, as the PR 7 profiler reported them."""
    prog = _collatz_prog()
    value = [1, 9, 100, 3]
    report = prog.profile(value)
    assert report.verify_totals(), engine
    assert (report.time, report.work) == (1194, 5071), engine
    assert [(b.kind, b.hits) for b in report.blocks] == [
        ("block", 1), ("block", 26), ("jump", 26), ("block", 3), ("jump", 3),
        ("block", 25), ("jump", 25), ("block", 1), ("halt", 1),
    ]  # fmt: skip
    # budget 40 expires 20 instructions into entry 5: the block falls back to
    # per-step execution and must still count as ONE hit, charged 20 units
    step_body = report.blocks[5]
    assert step_body.last - step_body.first + 1 > 20  # the stop is inside the block
    report = prog.profile(value, max_steps=40)
    assert report.verify_totals() and (report.time, report.work) == (40, 236)
    assert [(b.entry, b.hits, b.time) for b in report.blocks if b.hits] == [
        (0, 1, 14), (1, 1, 5), (2, 1, 1), (5, 1, 20),
    ]  # fmt: skip


@pytest.mark.parametrize("engine", UNTRACED)
def test_profile_exit_unit_only_for_an_executed_halt_or_trap(engine):
    """A run that stops *next to* a halt/trap it never executed charges it nothing."""
    # the taken goto lands on the halt just as the budget runs out; the
    # trap in between is one entry before the exit pc but was never fetched
    skipped = isa.Program(
        instructions=[isa.Goto("h"), isa.Trap("never"), isa.Halt()],
        labels={"h": 2},
        n_registers=1,
        n_inputs=0,
        n_outputs=1,
    )
    report = profile_run(skipped, [], max_steps=1)
    assert report.error.startswith("exceeded 1 steps"), engine
    assert report.verify_totals() and report.time == 1
    assert [b.hits for b in report.blocks] == [1, 0, 0]
    report = profile_run(skipped, [])
    assert report.error is None and report.verify_totals()
    assert [b.hits for b in report.blocks] == [1, 0, 1]
    # a goto past the final halt runs off the end without executing it
    past_end = isa.Program(
        instructions=[isa.Goto("end"), isa.Halt()],
        labels={"end": 2},
        n_registers=1,
        n_inputs=0,
        n_outputs=1,
    )
    report = profile_run(past_end, [])
    assert report.error is None and report.verify_totals() and report.time == 1
    assert [b.hits for b in report.blocks] == [1, 0]


@pytest.mark.parametrize("engine", UNTRACED)
def test_profile_trap_sets_error_with_exact_prefix_totals(engine):
    prog = compile_nsc(_get_fn())
    value = [1, 2, 3]  # get() of a length-3 sequence traps
    status, err, t, w, _ = _plain(prog, value)
    assert status == "err"
    report = prog.profile(value)
    assert report.error == err, engine
    assert report.result is None
    assert report.verify_totals()
    assert (report.time, report.work) == (t, w)
    assert any(b.kind == "trap" and b.hits for b in report.blocks)


@pytest.mark.parametrize("engine", UNTRACED)
def test_profile_max_steps_mid_block_exact(engine):
    """Budget expiring inside a block still attributes bit-identically."""
    prog = _collatz_prog()
    value = [27, 27, 27, 27]
    full = _plain(prog, value)
    assert full[0] == "ok"
    for max_steps in (1, 3, 7, full[2] // 2):
        status, err, t, w, _ = _plain(prog, value, max_steps=max_steps)
        assert status == "err"
        report = prog.profile(value, max_steps=max_steps)
        assert report.error == err, (engine, max_steps)
        assert report.verify_totals(), (engine, max_steps)
        assert (report.time, report.work) == (t, w), (engine, max_steps)


def test_profile_meta_cached_like_plans():
    prog = _collatz_prog()
    assert "_profile_meta" in CompiledProgram._CACHE_ATTRS
    assert meta_for(prog) is meta_for(prog)


def test_profile_report_table_and_source_lines():
    prog = _collatz_prog()
    report = prog.profile([1, 9, 100, 3, 27])
    n_lines = len(report.listing.splitlines())
    executed = report.hot_blocks()
    assert executed, "collatz must execute at least one block"
    for b in executed:
        assert 1 <= b.source_line <= n_lines
        assert b.code  # snippet of the first covered instruction
    walls = [b.wall_s for b in report.hot_blocks(key="wall_s")]
    assert walls == sorted(walls, reverse=True)
    text = report.table(limit=5)
    assert f"T'={report.time}" in text and f"W'={report.work}" in text
    assert report.hot_blocks(limit=3) == executed[:3]


def test_profiling_disabled_overhead_within_two_percent():
    """The CI overhead gate: disabled hooks cost ≤2% of a quicksort run.

    A plain ``run()`` crosses zero span sites; the serving path crosses a
    handful.  We bound a *generous* 64 disabled-span crossings against the
    measured ``quicksort_t`` wall time (64 elements).
    """
    from repro.algorithms.quicksort import quicksort_def
    from repro.maprec.translate import translate

    prog = compile_nsc(translate(quicksort_def()))
    value = [(i * 37) % 64 for i in range(64)]
    prog.run(value)  # warm the plan cache
    wall = min(_timed_run(prog, value) for _ in range(3))

    assert span("probe") is NULL_SPAN  # structurally allocation-free
    n = 20_000
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _i in range(n):
            with span("probe"):
                pass
        best = min(best, (perf_counter() - t0) / n)
    sites = 64  # far more than any single request path crosses
    assert best * sites <= 0.02 * wall, (
        f"disabled span {best * 1e9:.0f}ns x {sites} sites vs "
        f"{wall * 1e3:.2f}ms run"
    )


def _timed_run(prog, value):
    t0 = perf_counter()
    prog.run(value)
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


def test_cost_check_fits_and_predicts():
    prog = _collatz_prog()
    reports = [prog.profile(v) for v in ([1, 9, 100, 3, 27, 64] * 8, [7] * 32)]
    fit = cost_check(reports)
    executed = sum(1 for r in reports for b in r.blocks if b.hits)
    assert len(fit.rows) == executed
    assert fit.r2 <= 1.0 + 1e-9
    assert all(r.predicted_s >= 0.0 for r in fit.rows)  # clamped weights
    text = fit.table(limit=4)
    assert "wall ~" in text and "r2=" in text
    d = fit.as_dict()
    assert set(d) == {"alpha_s_per_t", "beta_s_per_w", "r2"}


def test_cost_check_degenerate_single_block():
    prog = compile_nsc(_affine_fn())
    report = prog.profile([1, 2, 3])
    only = [b for b in report.blocks if b.hits]
    fit = cost_check(report)
    assert len(fit.rows) == len(only)
    assert fit.r2 <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# metrics: windowed rate + percentile edge cases
# ---------------------------------------------------------------------------


class _FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def test_requests_per_sec_windowed_vs_lifetime():
    clock = _FakeClock()
    m = ServerMetrics(clock=clock, rate_window_s=10.0)
    for i in range(20):
        clock.t = i * 0.1  # 20 completions over the first 2 seconds
        m.observe_request(0.01, ok=True)
    clock.t = 2.0
    assert m.requests_per_sec() == pytest.approx(10.0)
    assert m.lifetime_requests_per_sec() == pytest.approx(10.0)
    # after a long idle stretch the windowed rate drops to zero while the
    # lifetime average merely dilutes
    clock.t = 100.0
    assert m.requests_per_sec() == 0.0
    assert m.lifetime_requests_per_sec() == pytest.approx(0.2)
    snap = m.snapshot()
    assert snap["requests_per_sec"] == 0.0
    assert snap["lifetime_requests_per_sec"] == 0.2


def test_rate_window_state_does_not_grow_with_the_request_rate():
    # one entry per second of the window, not one per request: at tens of
    # thousands of requests a second the old per-request timestamps were
    # megabytes that grew for the first 30 s of a server's life
    clock = _FakeClock()
    m = ServerMetrics(clock=clock, rate_window_s=10.0)
    for second in range(40):
        for i in range(500):
            clock.t = second + i / 500.0
            m.observe_request(0.01, ok=True)
    assert len(m._completions) <= 11
    clock.t = 40.0
    assert m.requests_per_sec() == pytest.approx(500.0)


def test_requests_per_sec_young_server_divisor_capped():
    clock = _FakeClock()
    m = ServerMetrics(clock=clock, rate_window_s=30.0)
    clock.t = 2.0
    for _ in range(10):
        m.observe_request(0.01, ok=True)
    # divisor is the server age (2s), not the 30s window
    assert m.requests_per_sec() == pytest.approx(5.0)
    # but never less than one second: a sub-second-old server must not
    # report inflated six-figure rates from a handful of completions
    m2 = ServerMetrics(clock=clock, rate_window_s=30.0)
    clock.t = 2.0005
    for _ in range(5):
        m2.observe_request(0.01, ok=True)
    assert m2.requests_per_sec() == pytest.approx(5.0)


def test_requests_per_sec_zero_elapsed():
    m = ServerMetrics(clock=_FakeClock())
    assert m.requests_per_sec() == 0.0
    assert m.lifetime_requests_per_sec() == 0.0


def test_latency_percentile_empty_window_is_none():
    m = ServerMetrics()
    assert m.latency_percentile(50.0) is None
    assert m.p50_latency_s is None and m.p99_latency_s is None
    # None percentiles must be omitted, not rendered, by the exporter
    text = render_prometheus(m.snapshot())
    assert "p50_latency_s" not in text and "p99_latency_s" not in text


def test_latency_percentile_bounds_and_extremes():
    m = ServerMetrics()
    for v in (0.5, 0.1, 0.9, 0.3):
        m.observe_request(v, ok=True)
    assert m.latency_percentile(0.0) == 0.1
    assert m.latency_percentile(100.0) == 0.9
    with pytest.raises(ValueError):
        m.latency_percentile(-0.1)
    with pytest.raises(ValueError):
        m.latency_percentile(100.1)


def test_latency_window_saturation_evicts_oldest():
    m = ServerMetrics(window=4)
    for v in range(1, 11):  # 10 observations into a window of 4
        m.observe_request(float(v), ok=True)
    assert m.latency_percentile(0.0) == 7.0  # 1..6 evicted
    assert m.latency_percentile(100.0) == 10.0
    assert m.completed == 10  # counters are not windowed


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

_GOLDEN_SNAPSHOT = {
    "submitted": 5,
    "completed": 4,
    "failed": 1,
    "rejected": 0,
    "batches": 2,
    "queue_depth": 0,
    "batch_size_hist": {1: 1, 4: 1},
    "mean_batch_size": 2.5,
    "p50_latency_s": 0.25,
    "p99_latency_s": 0.5,
    "requests_per_sec": 10.0,
    "lifetime_requests_per_sec": 2.0,
}

_GOLDEN_TEXT = """\
# HELP repro_server_submitted_total Requests accepted into a queue
# TYPE repro_server_submitted_total counter
repro_server_submitted_total 5
# HELP repro_server_completed_total Requests completed with a value
# TYPE repro_server_completed_total counter
repro_server_completed_total 4
# HELP repro_server_failed_total Requests completed with an exception (their own trap)
# TYPE repro_server_failed_total counter
repro_server_failed_total 1
# HELP repro_server_rejected_total Requests refused by backpressure (bounded queue full)
# TYPE repro_server_rejected_total counter
repro_server_rejected_total 0
# HELP repro_server_batches_total Batches executed
# TYPE repro_server_batches_total counter
repro_server_batches_total 2
# HELP repro_server_queue_depth Queued-but-not-yet-executing requests
# TYPE repro_server_queue_depth gauge
repro_server_queue_depth 0
# HELP repro_server_mean_batch_size Finished requests per executed batch
# TYPE repro_server_mean_batch_size gauge
repro_server_mean_batch_size 2.5
# HELP repro_server_p50_latency_s Median request latency over the sliding window (seconds)
# TYPE repro_server_p50_latency_s gauge
repro_server_p50_latency_s 0.25
# HELP repro_server_p99_latency_s 99th-percentile request latency over the sliding window (seconds)
# TYPE repro_server_p99_latency_s gauge
repro_server_p99_latency_s 0.5
# HELP repro_server_requests_per_sec Finished requests per second over the recent rate window
# TYPE repro_server_requests_per_sec gauge
repro_server_requests_per_sec 10.0
# HELP repro_server_lifetime_requests_per_sec Finished requests per second of server lifetime
# TYPE repro_server_lifetime_requests_per_sec gauge
repro_server_lifetime_requests_per_sec 2.0
# HELP repro_server_batch_size Executed batch sizes
# TYPE repro_server_batch_size histogram
repro_server_batch_size_bucket{le="1"} 1
repro_server_batch_size_bucket{le="4"} 2
repro_server_batch_size_bucket{le="+Inf"} 2
repro_server_batch_size_sum 5
repro_server_batch_size_count 2
"""


def test_render_prometheus_golden_text():
    assert render_prometheus(_GOLDEN_SNAPSHOT) == _GOLDEN_TEXT


def test_render_prometheus_counter_vs_gauge_types():
    text = render_prometheus(_GOLDEN_SNAPSHOT)
    assert "# TYPE repro_server_submitted_total counter" in text
    assert "# TYPE repro_server_queue_depth gauge" in text
    # gauges never get the _total suffix, counters always do
    assert "repro_server_queue_depth_total" not in text
    assert "\nrepro_server_submitted " not in text


def test_render_prometheus_label_escaping():
    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
    text = render_prometheus(
        {"submitted": 1}, labels={"name": 'he said "hi"\\now'}
    )
    assert 'name="he said \\"hi\\"\\\\now"' in text


def test_render_prometheus_ignores_unknown_keys():
    text = render_prometheus({"submitted": 1, "brand_new_metric": 7})
    assert "brand_new_metric" not in text


def test_aggregate_worker_metrics_sums_and_counts_alive():
    workers = [
        {"worker": 0, "alive": True, "spans": 3, "items": 9, "busy_s": 0.25},
        {"worker": 1, "alive": False, "spans": 2, "items": 4, "busy_s": 0.5},
    ]
    agg = aggregate_worker_metrics(workers)
    assert agg == {
        "workers": 2,
        "alive": 1,
        "spans": 5,
        "items": 13,
        "busy_s": 0.75,
    }


def test_render_shard_prometheus_per_worker_labels():
    workers = [
        {
            "worker": 0,
            "alive": True,
            "spans": 3,
            "items": 9,
            "errors": 0,
            "need_prog": 1,
            "respawns": 0,
            "fallback_spans": 0,
            "busy_s": 0.5,
        }
    ]
    snap = {"workers": workers, "aggregate": aggregate_worker_metrics(workers)}
    text = render_shard_prometheus(snap)
    assert "repro_shard_workers 1" in text
    assert "repro_shard_workers_alive 1" in text
    assert 'repro_shard_spans_total{worker="0"} 3' in text
    assert 'repro_shard_need_prog_total{worker="0"} 1' in text
    assert 'repro_shard_busy_seconds_total{worker="0"} 0.5' in text


# ---------------------------------------------------------------------------
# server integration: endpoint + request tracing
# ---------------------------------------------------------------------------


def test_server_metrics_endpoint_formats():
    prog = compile_nsc(_affine_fn())

    async def main():
        async with Server(max_batch=8) as srv:
            await srv.submit(prog, [1, 2, 3])
            json_ct, json_body = await srv.metrics_endpoint("json")
            prom_ct, prom_body = await srv.metrics_endpoint("prometheus")
            with pytest.raises(ValueError):
                await srv.metrics_endpoint("xml")
            return json_ct, json_body, prom_ct, prom_body

    json_ct, json_body, prom_ct, prom_body = asyncio.run(main())
    assert json_ct == "application/json"
    snap = json.loads(json_body)
    assert snap["completed"] == 1 and snap["queue_depth"] == 0
    assert "lifetime_requests_per_sec" in snap
    assert prom_ct.startswith("text/plain; version=0.0.4")
    assert "repro_server_completed_total 1" in prom_body
    assert "# TYPE repro_server_batch_size histogram" in prom_body


def test_server_records_per_request_trace_events():
    prog = compile_nsc(_affine_fn())
    tr = Trace()

    async def main():
        async with Server(max_batch=8, tracer=tr) as srv:
            return await asyncio.gather(
                *(srv.submit(prog, [i, i + 1]) for i in range(4))
            )

    results = asyncio.run(main())
    assert len(results) == 4
    names = {e["name"] for e in tr.events()}
    assert {"serve/queued", "serve/batch", "serve/request"} <= names
    requests = [e for e in tr.events() if e["name"] == "serve/request"]
    assert len(requests) == 4
    assert all(e["args"]["ok"] for e in requests)
    # executor-side spans ride the same trace via activate()
    assert "batch/execute" in names
