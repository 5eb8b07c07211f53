"""Tests for the NSC->BVRAM compiler (Section 7 / Theorem 7.1).

The heart is the differential battery: every suite program runs through both
the Appendix B interpreter and the compiled BVRAM and must produce the same
S-object, with measured ``T'`` within a constant factor of ``T`` and ``W'``
inside the ``O(W^(1+eps))`` envelope for two ``eps`` values.
"""

import json
import os

import pytest

from repro.bvram import BVRAMError
from repro.compiler import CompileError, CompiledProgram, compile_nsc
from repro.compiler.codegen import CODEGEN_VERSION, decode_batch, encode_batch, field_count
from repro.compiler.difftest import (
    battery_costs,
    format_cost_summary,
    run_differential,
    run_suite,
    suite,
)
from repro.compiler.nsa import block_free_vars, block_size, lower_function
from repro.nsc import apply_function, builder as B, evaluate, from_python, lib
from repro.nsc.eval import NSCEvalError
from repro.nsc.types import BOOL, NAT, prod, seq, sum_t
from repro.nsc.values import FALSE, TRUE, VInl, VInr, VNat, VPair, VSeq, vseq


# ---------------------------------------------------------------------------
# Pass 1: NSA lowering
# ---------------------------------------------------------------------------


def test_lowering_inlines_lambdas_and_lets():
    x = B.gensym("x")
    fn = B.lam(x, NAT, B.let("y", B.add(B.v(x), 1), B.mul(B.v("y"), B.v("y"))))
    block = lower_function(fn)
    assert len(block.params) == 1
    assert block_size(block) == 3  # const 1, add, mul
    assert block_free_vars(block) == ()


def test_lowering_rejects_recursion():
    from repro.algorithms.quicksort import quicksort_def

    with pytest.raises(CompileError, match="Theorem 4.2"):
        compile_nsc(quicksort_def().to_recfun())


def test_lowering_rejects_sequence_equality():
    x = B.gensym("x")
    fn = B.lam(x, seq(NAT), B.eq(B.v(x), B.v(x)))
    with pytest.raises(CompileError, match="equality"):
        compile_nsc(fn)


def test_map_closures_are_free_vars():
    x, y = B.gensym("x"), B.gensym("y")
    fn = B.lam(
        x, NAT, B.app(B.map_(B.lam(y, NAT, B.add(B.v(y), B.v(x)))), B.nat_seq([1, 2]))
    )
    block = lower_function(fn)
    # the inner map block must report the captured scalar as free
    (mapped,) = [b.op for b in block.binds if type(b.op).__name__ == "NMap"]
    assert [v.type for v in block_free_vars(mapped.body)] == [NAT]


# ---------------------------------------------------------------------------
# Marshalling: encode/decode round-trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "t, value",
    [
        (NAT, VNat(42)),
        (seq(NAT), from_python([1, 2, 3])),
        (seq(NAT), from_python([])),
        (seq(seq(NAT)), from_python([[1], [], [2, 3]])),
        (prod(NAT, seq(NAT)), from_python((7, [8, 9]))),
        (BOOL, TRUE),
        (BOOL, FALSE),
        (sum_t(seq(NAT), NAT), VInl(from_python([4, 5]))),
        (sum_t(seq(NAT), NAT), VInr(VNat(6))),
        (seq(sum_t(NAT, NAT)), vseq([VInl(VNat(1)), VInr(VNat(2)), VInl(VNat(3))])),
    ],
)
def test_encode_decode_roundtrip(t, value):
    fields = encode_batch([value], t)
    assert len(fields) == field_count(t)
    assert decode_batch(fields, t, 1) == [value]


# ---------------------------------------------------------------------------
# The differential battery (the Theorem 7.1 check)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [1.0, 0.5])
def test_differential_suite(eps):
    records = run_suite(eps=eps)
    assert records, "empty differential suite"
    bad = [r for r in records if not r.ok]
    detail = "\n".join(
        f"{r.name}: match={r.value_matches} T={r.interp_time} T'={r.bvram_time} "
        f"W={r.interp_work} W'={r.bvram_work} instrs={r.instructions}"
        for r in bad
    )
    assert not bad, f"differential failures at eps={eps}:\n{detail}"


_COSTS_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "battery_costs.json")


def test_battery_costs_match_golden():
    """Exact T, T', W, W', instructions and registers of every battery case.

    A code generator change that moves any count must regenerate the file
    and bump ``CODEGEN_VERSION``; the diff then shows every moved cell.
    """
    with open(_COSTS_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    regen = (
        "if the change is intentional, regenerate the snapshot with:\n"
        "  PYTHONPATH=src python -m repro.compiler.difftest --json > tests/golden/battery_costs.json"
    )
    assert golden["codegen_version"] == CODEGEN_VERSION, "CODEGEN_VERSION moved; " + regen
    assert battery_costs() == golden, "battery costs drifted from tests/golden/battery_costs.json; " + regen


def test_cost_summary_sums_shared_cases_and_names_every_rise():
    before = {"cases": {"a": {"T'": 10, "W'": 5}, "b": {"T'": 3, "W'": 9}, "gone": {"T'": 1, "W'": 1}}}
    after = {"cases": {"a": {"T'": 8, "W'": 6}, "b": {"T'": 3, "W'": 9}, "new": {"T'": 1, "W'": 1}}}
    assert format_cost_summary(after, before) == "sum T' 13 → 11, sum W' 14 → 15; rose: a"
    assert format_cost_summary(before, before).endswith("; rose: none")


def test_cost_envelope_holds_as_the_input_grows():
    """Theorem 7.1 as scaling, not one size: T'/T bounded, W' under W^(1+eps)."""
    from repro.analysis import loglog_slope
    from repro.compiler.difftest import _collatz_steps

    fn = _collatz_steps()  # map(while) with a skewed iteration profile
    prog = compile_nsc(fn, eps=0.5)
    sizes = [64, 256, 1024]
    recs = [
        run_differential(f"collatz[{n}]", fn, [i % 511 for i in range(n)], compiled=prog)
        for n in sizes
    ]
    assert all(rec.value_matches for rec in recs)
    t_ratio = [rec.bvram_time / rec.interp_time for rec in recs]
    assert max(t_ratio) <= 3 * min(t_ratio) + 1  # no growth with n
    assert all(rec.bvram_work <= rec.interp_work**1.5 for rec in recs)
    # iterations are bounded by 511, so W' itself grows near-linearly in n
    assert loglog_slope(sizes, [rec.bvram_work for rec in recs]).slope <= 1.35


def test_compiled_identity_function():
    x = B.gensym("x")
    prog = compile_nsc(B.lam(x, seq(NAT), B.v(x)))
    value, run = prog.run([4, 5, 6])
    assert value == from_python([4, 5, 6])
    assert run.time >= 1


def test_compiled_costs_are_deterministic():
    fn = lib.reduce_add()
    prog = compile_nsc(fn)
    _, r1 = prog.run(list(range(9)))
    _, r2 = prog.run(list(range(9)))
    assert (r1.time, r1.work) == (r2.time, r2.work)


def test_eps_is_validated():
    x = B.gensym("x")
    fn = B.lam(x, NAT, B.v(x))
    with pytest.raises(CompileError, match="eps"):
        compile_nsc(fn, eps=0.0)
    with pytest.raises(CompileError, match="eps"):
        compile_nsc(fn, eps=1.5)


def test_eps_is_realised_as_the_next_power_of_two_down():
    """``n^eps`` is ``k`` integer square roots: ``eps = 0.75`` gets the
    ``eps = 0.5`` program and reports 0.5, never an eps it did not build."""
    from repro.compiler.difftest import _collatz_steps

    fn = _collatz_steps()
    progs = {eps: compile_nsc(fn, eps=eps) for eps in (1.0, 0.75, 0.5, 0.3, 0.25)}
    for eps in (1.0, 0.5, 0.25):
        assert progs[eps].eps == eps
    assert progs[0.75].eps == 0.5 and progs[0.3].eps == 0.25
    assert progs[0.75].instructions == progs[0.5].instructions
    assert progs[0.75].instructions != progs[1.0].instructions
    assert progs[0.3].instructions == progs[0.25].instructions


def test_smaller_eps_does_not_increase_work_on_skewed_while():
    """Lemma 7.2: the staged scheme's re-touching shrinks as eps shrinks.

    ``map(while(x > 0, x - 1))`` over [n, n, ..., 1, huge] has a maximally
    skewed finishing profile; the dense (eps = 1) scheme re-touches every slot
    each iteration while smaller eps compacts between stages.
    """
    x, y = B.gensym("x"), B.gensym("y")
    fn = B.map_(
        B.while_(B.lam(x, NAT, B.gt(B.v(x), 0)), B.lam(y, NAT, B.sub(B.v(y), 1)))
    )
    arg = list(range(1, 33)) + [400]
    works = {}
    for eps in (1.0, 0.5, 0.25):
        _, run = compile_nsc(fn, eps=eps).run(arg)
        works[eps] = run.work
    assert works[0.25] < works[0.5] < works[1.0]
    # all three agree with the interpreter on the value, per run_differential
    assert run_differential("skew", fn, arg, eps=0.25).value_matches


# ---------------------------------------------------------------------------
# Undefinedness parity: interpreter error <=> BVRAM trap
# ---------------------------------------------------------------------------


def _both_fail(fn, arg, interp_pattern=None):
    with pytest.raises(NSCEvalError):
        apply_function(fn, from_python(arg))
    prog = compile_nsc(fn)
    with pytest.raises(BVRAMError):
        prog.run(arg)


def test_trap_parity_zip_mismatch():
    p = B.gensym("p")
    fn = B.lam(p, prod(seq(NAT), seq(NAT)), B.zip_(B.fst(B.v(p)), B.snd(B.v(p))))
    _both_fail(fn, ([1, 2], [1]))


def test_trap_parity_get_of_long_sequence():
    x = B.gensym("x")
    fn = B.lam(x, seq(NAT), B.get_(B.v(x)))
    _both_fail(fn, [1, 2])
    _both_fail(fn, [])


def test_trap_parity_split_mismatch():
    x = B.gensym("x")
    fn = B.lam(x, seq(NAT), B.split_(B.v(x), B.nat_seq([1, 2])))
    _both_fail(fn, [5])


def test_trap_parity_division_by_zero():
    x = B.gensym("x")
    fn = B.lam(x, NAT, B.div(1, B.v(x)))
    _both_fail(fn, 0)


def test_trap_parity_error_term():
    x = B.gensym("x")
    fn = B.lam(x, NAT, B.error(NAT))
    _both_fail(fn, 3)


def test_untaken_branch_does_not_trap():
    """The compiled conditional runs both branches on packed sub-contexts;
    the not-taken branch executes over *zero* element slots, so a division
    by zero (or Omega) there must not fire — matching the lazy interpreter."""
    x = B.gensym("x")
    fn = B.lam(x, NAT, B.if_(B.gt(B.v(x), 0), B.v(x), B.div(B.v(x), 0)))
    assert apply_function(fn, from_python(5)).value == VNat(5)
    value, _ = compile_nsc(fn).run(5)
    assert value == VNat(5)

    y = B.gensym("y")
    fn2 = B.lam(y, NAT, B.if_(B.gt(B.v(y), 0), B.v(y), B.error(NAT)))
    value, _ = compile_nsc(fn2).run(9)
    assert value == VNat(9)


def test_map_over_empty_runs_zero_slots():
    """Every construct (including while) must be a no-op at context width 0."""
    x, y = B.gensym("x"), B.gensym("y")
    inner = B.while_(
        B.lam(x, NAT, B.gt(B.v(x), 1)), B.lam(y, NAT, B.div(B.v(y), 0))
    )
    fn = B.map_(inner)
    value, run = compile_nsc(fn).run([])
    assert value == from_python([])


# ---------------------------------------------------------------------------
# The closed chain: recursion -> Theorem 4.2 -> compiler -> BVRAM
# ---------------------------------------------------------------------------


def test_quicksort_chain_end_to_end():
    from repro.algorithms.quicksort import quicksort_def
    from repro.maprec.translate import translate

    arg = [3, 1, 4, 1, 5, 9, 2, 6]
    rec = apply_function(quicksort_def().to_recfun(), from_python(arg))
    prog = compile_nsc(translate(quicksort_def()), eps=0.5)
    value, run = prog.run(arg)
    assert value == rec.value == from_python(sorted(arg))
    assert run.time > 0 and run.work > 0


def test_mergesort_g_schema_chain_end_to_end():
    from repro.algorithms.mergesort import mergesort_def
    from repro.maprec.translate import translate

    d = mergesort_def()
    d.check_types()
    arg = [5, 3, 8, 1, 9, 2, 7, 4, 6, 0]
    rec = apply_function(d.to_recfun(), from_python(arg))
    assert rec.value == from_python(sorted(arg))
    value, _ = compile_nsc(translate(d), eps=0.5).run(arg)
    assert value == from_python(sorted(arg))


def test_compiled_program_shape():
    prog = compile_nsc(lib.reduce_add())
    assert isinstance(prog, CompiledProgram)
    # the value fields, then the batch template: a single run is a batch of one
    assert prog.n_inputs == field_count(seq(NAT)) + 1 == 3
    assert prog.n_outputs == field_count(NAT) == 1
    assert prog.nsa_size > 0
    prog.validate()  # labels and register indices are all in range
