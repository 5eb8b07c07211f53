"""Tests for the batched serving engine and the block-fused executor.

Four layers:

* **batch differential battery** — for every program in the 38-run
  ``compiler/difftest.py`` battery, ``run_batch([x1..xk])`` returns exactly
  the values of k independent ``run(xi)`` calls (heterogeneous input sizes
  included — each suite entry batches all its inputs together);
* **fusion parity** — the block-fused untraced plan produces T/W totals and
  final registers bit-identical to the per-instruction plan and the traced
  interpreter, at opt levels 0 and 2, including mid-block error paths;
* **edge cases** — empty batch, singleton batch, unit-typed domain (the
  dedicated batch-template register carries the width when the input has no
  value fields), heterogeneous sizes;
* **trap semantics** — a trapping input makes ``run_batch`` raise
  :class:`BatchError` naming the failing batch index; with
  ``return_exceptions=True`` the error is returned in place and sibling
  results are exactly the independent per-input values (the fallback loop
  runs each input on a fresh machine).
"""

import numpy as np
import pytest

from fuzz_gen import too_deep
from repro.bvram import BVRAM, BVRAMError
from repro.backends.base import BLOCK
from repro.backends.fused import build_fused_plan
from repro.bvram import isa
from repro.compiler import BatchError, CompileError, compile_nsc
from repro.compiler.codegen import decode_batch, encode_batch, field_count
from repro.compiler.difftest import suite
from repro.nsc import builder as B, from_python
from repro.nsc.types import NAT, UNIT, prod, seq
from repro.nsc.values import nat_seq_value
from repro.obs.trace import Trace


# ---------------------------------------------------------------------------
# Batch differential battery
# ---------------------------------------------------------------------------


def test_run_batch_matches_independent_runs_across_battery():
    for name, fn, args in suite():
        prog = compile_nsc(fn)
        expected = [prog.run(a)[0] for a in args]
        got = prog.run_batch(args)
        assert got == expected, name
        # the batched path actually ran: the batched execution did not
        # degrade to the per-input loop
        assert getattr(prog, "_batch_fallback_error", None) is None, name


def test_run_batch_on_batch_axis_program_runs_in_place():
    # ``batch_axis=True`` is the one program there is (kept for old callers)
    fn = B.map_(B.lam("x", NAT, B.mul(B.v("x"), B.v("x"))))
    prog = compile_nsc(fn, batch_axis=True)
    assert prog.n_inputs == field_count(prog.dom) + 1  # the batch template
    assert prog.run_batch([[1, 2], [3]]) == [from_python([1, 4]), from_python([9])]
    # a single input is a batch of one
    value, _ = prog.run([2, 3])
    assert value == from_python([4, 9])
    with pytest.raises(CompileError, match="batch_axis=False"):
        compile_nsc(fn, batch_axis=False)


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
def test_run_is_run_batch_of_one_across_battery(eps, opt_level):
    """``run(v)`` is ``run_batch([v])``: the same value or trap, the same ``T'``/``W'``."""
    for name, fn, args in suite():
        prog = compile_nsc(fn, eps=eps, opt_level=opt_level, cache=None)
        for arg in args:
            ctx = (name, arg)
            with Trace() as tr:
                (got,) = prog.run_batch([arg], return_exceptions=True)
            try:
                value, res = prog.run(arg)
            except BVRAMError as e:
                assert isinstance(got, BatchError), ctx
                assert (got.index, got.cause_text) == (0, str(e)), ctx
                continue
            assert got == value, ctx
            execute = next(e for e in tr.events() if e["name"] == "batch/execute")
            assert (execute["args"]["time"], execute["args"]["work"]) == (res.time, res.work), ctx


def test_batch_axis_program_matches_width1_on_battery_subset():
    for name, fn, args in suite()[:8]:
        p1 = compile_nsc(fn)
        pb = compile_nsc(fn, batch_axis=True)
        assert pb.instructions == p1.instructions, name
        for arg in args:
            assert p1.run(arg)[0] == pb.run(arg)[0], name


# ---------------------------------------------------------------------------
# Tier parity: traced == fused == vector, bit for bit
# ---------------------------------------------------------------------------

#: (record_trace, backend) of the reference and of every untraced tier
MODES = ((True, None), (False, "fused"), (False, "vector"))


def _run_modes(prog, inputs, n_registers, **kwargs):
    """[(machine, None or the BVRAMError message)] per mode, in MODES order."""
    out = []
    for record_trace, backend in MODES:
        m = BVRAM(n_registers)
        try:
            m.run(prog, inputs, record_trace=record_trace, backend=backend, **kwargs)
            outcome = None
        except BVRAMError as e:
            outcome = str(e)
        out.append((m, outcome))
    return out


def _assert_modes_agree(runs, ctx=None):
    (traced, outcome), *tiers = runs
    for m, o in tiers:
        assert o == outcome, ctx
        assert (m.time, m.work) == (traced.time, traced.work), ctx
        assert all((a == b).all() for a, b in zip(m.registers, traced.registers)), ctx
    return traced, outcome


@pytest.mark.parametrize("opt_level", [0, 2])
def test_tier_totals_equal_traced_across_battery(opt_level):
    for name, fn, args in suite():
        prog = compile_nsc(fn, eps=0.5, opt_level=opt_level)
        for arg in args:
            runs = _run_modes(prog, prog.encode_input(arg), prog.n_registers)
            _assert_modes_agree(runs, name)


def test_tier_totals_equal_traced_on_mid_block_error():
    # straight-line program whose 3rd instruction overflows: the block must
    # flush the totals of the 2 completed instructions, exactly like the
    # traced loop (the raising instruction is not charged)
    prog = isa.Program(
        instructions=[
            isa.LoadConst(dst=1, value=2**62),
            isa.LoadConst(dst=2, value=2**62),
            isa.Arith(dst=3, op="+", a=1, b=2),  # 2**63 overflows int64 naturals
            isa.Halt(),
        ],
        n_registers=4,
        n_inputs=1,
        n_outputs=1,
    )
    traced, outcome = _assert_modes_agree(_run_modes(prog, [[0]], 4))
    assert "overflow" in outcome
    assert traced.time == 2  # the two load_consts


def test_fused_plan_blocks_break_at_jump_targets():
    fn = B.lam(
        "x", NAT, B.app(B.while_(B.lam("p", NAT, B.lt(B.v("p"), 10)),
                                 B.lam("q", NAT, B.add(B.v("q"), 1))), B.v("x"))
    )
    prog = compile_nsc(fn)
    plan = build_fused_plan(prog)
    # fusion actually happened: fewer entries than instructions, and at
    # least one multi-instruction block
    assert len(plan) < len(prog.instructions)
    assert any(kind == BLOCK and extra > 1 for kind, _, extra in plan)
    # every instruction is covered exactly once
    assert sum(extra if kind == BLOCK else 1 for kind, _, extra in plan) == len(
        prog.instructions
    )


def test_fused_respects_max_steps():
    x, y = B.gensym("x"), B.gensym("y")
    diverge = B.while_(B.lam(x, NAT, B.true()), B.lam(y, NAT, B.v(y)))
    prog = compile_nsc(B.lam("z", NAT, B.app(diverge, B.v("z"))))
    m = BVRAM(prog.n_registers)
    with pytest.raises(BVRAMError, match="exceeded"):
        m.run(prog, prog.encode_input(1), max_steps=500, record_trace=False)


@pytest.mark.parametrize("max_steps", [1, 3, 5, 7])
def test_tier_max_steps_parity_mid_block(max_steps):
    # straight-line program longer than the budget: every mode must stop at
    # (and charge) exactly the same instruction, even when the budget
    # expires in the middle of a block — the one place the tiers fall back
    # to driving the per-op closure table step by step
    instrs = [isa.LoadConst(dst=1, value=i) for i in range(6)] + [isa.Halt()]
    prog = isa.Program(instructions=instrs, n_registers=2, n_inputs=1, n_outputs=1)
    traced, outcome = _assert_modes_agree(_run_modes(prog, [[0]], 2, max_steps=max_steps))
    assert (outcome is None) == (max_steps >= 7)
    assert traced.time == min(max_steps, 7)


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------


def _square_map():
    return B.map_(B.lam("x", NAT, B.mul(B.v("x"), B.v("x"))))


def test_empty_batch():
    prog = compile_nsc(_square_map())
    assert prog.run_batch([]) == []


def test_singleton_batch():
    prog = compile_nsc(_square_map())
    assert prog.run_batch([[3, 4]]) == [from_python([9, 16])]


def test_heterogeneous_input_sizes():
    prog = compile_nsc(_square_map())
    batch = [[], [5], list(range(100)), [7, 7, 7]]
    assert prog.run_batch(batch) == [prog.run(a)[0] for a in batch]


def test_unit_domain_batch_uses_template_register():
    prog = compile_nsc(B.lam("u", UNIT, B.c(7)))
    assert field_count(prog.dom) == 0  # no value fields: width rides the template
    assert prog.run_batch([None, None, None]) == [from_python(7)] * 3


def test_pair_and_seq_domain_batch():
    x = B.gensym("x")
    fn = B.lam(
        x,
        prod(NAT, seq(NAT)),
        B.app(B.map_(B.lam("y", NAT, B.add(B.v("y"), B.fst(B.v(x))))), B.snd(B.v(x))),
    )
    prog = compile_nsc(fn)
    batch = [(10, [1, 2, 3]), (0, []), (5, [9])]
    assert prog.run_batch(batch) == [prog.run(a)[0] for a in batch]


# ---------------------------------------------------------------------------
# Trap semantics
# ---------------------------------------------------------------------------


def _div_by_input():
    return B.lam("x", NAT, B.div(100, B.v("x")))


def test_trap_names_failing_batch_index():
    prog = compile_nsc(_div_by_input())
    with pytest.raises(BatchError, match="batch index 2") as exc_info:
        prog.run_batch([5, 10, 0, 4])
    assert exc_info.value.index == 2
    assert isinstance(exc_info.value, BVRAMError)


def test_omega_trap_names_failing_batch_index():
    x = B.gensym("x")
    fn = B.lam(x, NAT, B.if_(B.gt(B.v(x), 0), B.v(x), B.error(NAT)))
    prog = compile_nsc(fn)
    with pytest.raises(BatchError, match="batch index 1"):
        prog.run_batch([3, 0, 7])


# a request the machine traps on, and the four ways one can fail to encode
ISOLATION_CASES = [
    pytest.param(_div_by_input, [5, 0, 4], id="trap"),
    pytest.param(_square_map, [[1, 2, 3], [2**63, 1], [4, 5, 6]], id="too_wide"),
    pytest.param(_square_map, [[1, 2, 3], [-1, 3], [4, 5, 6]], id="negative"),
    pytest.param(_square_map, [[1, 2, 3], [[1], 2], [4, 5, 6]], id="wrong_shape"),
    pytest.param(_square_map, [[1, 2, 3], too_deep(), [4, 5, 6]], id="too_deep"),
]


@pytest.mark.parametrize("make_fn,batch", ISOLATION_CASES)
def test_trap_does_not_corrupt_sibling_results(make_fn, batch):
    prog = compile_nsc(make_fn())
    with pytest.raises(Exception) as solo:
        prog.run(batch[1])
    out = prog.run_batch(batch, return_exceptions=True)
    assert out[0] == prog.run(batch[0])[0]
    assert out[2] == prog.run(batch[2])[0]
    assert isinstance(out[1], BatchError) and out[1].index == 1
    assert out[1].cause_text == str(solo.value)
    # without isolation a trap is a BatchError naming the index, a request
    # that cannot be encoded keeps the exception a lone run() raises
    with pytest.raises(Exception) as whole:
        prog.run_batch(batch)
    if isinstance(solo.value, BVRAMError):
        assert isinstance(whole.value, BatchError) and whole.value.index == 1
    else:
        assert type(whole.value) is type(solo.value)
    # and the failure did not poison later batches on the same program
    assert prog.run_batch([batch[0], batch[2]]) == [out[0], out[2]]


def test_too_deep_request_is_an_encode_error_naming_types_only():
    # RecursionError is nobody's request error: the offender gets a
    # CompileError with the expected type and the Python type found — no
    # repr of the payload, which would recurse as well
    prog = compile_nsc(_square_map())
    with pytest.raises(CompileError, match=r"^expected N, got list: .* recursion limit$"):
        prog.run(too_deep())


def test_a_bug_in_the_per_input_loop_is_not_a_request_error(monkeypatch):
    # isolation covers traps and marshalling only: a ValueError out of the
    # machine is a bug and must not come back as one request's BatchError
    prog = compile_nsc(_div_by_input())
    prog.run_batch([5, 0, 4], return_exceptions=True)  # build the plan first
    errors = iter([BVRAMError("the batched run traps")])

    def broken(self, *args, **kwargs):
        raise next(errors, ValueError("kernel bug"))  # then the loop's runs

    monkeypatch.setattr(BVRAM, "run", broken)
    with pytest.raises(ValueError, match="kernel bug"):
        prog.run_batch([5, 0, 4], return_exceptions=True)


def test_batched_time_is_max_not_sum():
    """Theorem 7.1 for a batch: ``T'`` tracks the slowest request, ``W'`` the total.

    Loops synchronise across batch slots, so the batched instruction count
    stays near the single-request maximum while a serving loop pays the sum.
    """
    from repro.compiler.difftest import _collatz_steps

    for fn, batch in [
        (_square_map(), [[i, i + 1, (i * 13) % 97] for i in range(32)]),
        (_collatz_steps(), [[(i * 37) % 200 + 1, i + 1] for i in range(32)]),
    ]:
        prog = compile_nsc(fn)
        singles = [prog.run(v)[1] for v in batch]
        res = BVRAM(prog.n_registers).run(
            prog, prog.encode_batch_input([from_python(v) for v in batch]),
            record_trace=False,
        )
        assert res.time < sum(r.time for r in singles) / 4
        assert res.work >= max(r.work for r in singles)


# ---------------------------------------------------------------------------
# Marshalling: encode_batch / decode_batch round trips
# ---------------------------------------------------------------------------


def test_encode_batch_layout():
    t = seq(NAT)
    vals = [from_python(x) for x in ([1, 2, 3], [], [9])]
    arrays = encode_batch(vals, t)
    lists = [[3, 0, 1], [1, 2, 3, 9]]  # the segment descriptor, then the data
    assert len(arrays) == len(lists)
    for a, l in zip(arrays, lists):
        assert isinstance(a, np.ndarray) and a.dtype == np.int64
        assert a.tolist() == l


def test_encode_batch_round_trip_nested():
    t = seq(seq(NAT))
    vals = [from_python(x) for x in ([[1], [2, 3]], [], [[], [4, 5, 6]])]
    fields = encode_batch(vals, t)
    assert decode_batch(fields, t, len(vals)) == vals


def test_encode_batch_type_errors():
    with pytest.raises(CompileError, match="expected a natural"):
        encode_batch([from_python([1, 2])], NAT)
    with pytest.raises(CompileError, match="expected a sequence"):
        encode_batch([from_python(3)], seq(NAT))
    with pytest.raises(CompileError, match="expected a natural"):
        encode_batch([nat_seq_value([1]), from_python([(1, 2)])], seq(NAT))


# ---------------------------------------------------------------------------
# Machine accessor satellites
# ---------------------------------------------------------------------------


def test_register_and_output_accessors():
    m = BVRAM(2)
    m.load(0, [3, 1, 2])
    assert m.register(0) == [3, 1, 2]
    assert all(isinstance(x, int) for x in m.register(0))
    arr = m.register_array(0)
    assert isinstance(arr, np.ndarray) and arr is m.registers[0]
    prog = compile_nsc(_square_map())
    _, run = prog.run([2, 3])
    assert run.output(1) == run.registers[1].tolist()
    assert isinstance(run.output_array(0), np.ndarray)
