"""Tests for the optimizing pipeline (repro.compiler.optimize + fast path).

Four layers of guarantees:

* **golden IR snapshots** — each NSA pass does exactly what its name says on
  small programs (pinned as pretty-printed before/after text);
* **refinement** — a hypothesis property over randomly built NSC programs:
  ``opt_level 0`` and ``opt_level 2`` compute identical values, and the
  optimized program's measured ``T'``/``W'`` never exceed the naive ones;
* **mode equivalence** — the untraced fast path produces bit-identical
  ``T``/``W`` totals and final registers to the traced mode;
* **trap preservation** — semantic partiality (division by zero, ``get``,
  ``zip``, Omega) survives every pass, including when the trapping binding
  is dead.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bvram import BVRAM, BVRAMError
from repro.compiler import CompileError, compile_nsc
from repro.compiler.difftest import run_differential, suite
from repro.compiler.nsa import hoist_projections, lower_function
from repro.compiler.optimize import (
    dead_code_elimination,
    fold_and_cse,
    format_block,
    optimize_block,
)
from repro.nsc import apply_function, builder as B, from_python
from repro.nsc.eval import NSCEvalError
from repro.nsc.types import NAT, seq


# ---------------------------------------------------------------------------
# Golden IR snapshots: one per pass
# ---------------------------------------------------------------------------


def test_golden_constant_folding():
    fn = B.lam("x", NAT, B.mul(B.add(2, 3), B.v("x")))
    block = lower_function(fn)
    assert format_block(block) == (
        "block(%0:N):\n"
        "  %1 = const 2\n"
        "  %2 = const 3\n"
        "  %3 = bin + %1 %2\n"
        "  %4 = bin * %3 %0\n"
        "  -> %4"
    )
    assert format_block(fold_and_cse(block)) == (
        "block(%0:N):\n"
        "  %1 = const 2\n"
        "  %2 = const 3\n"
        "  %3 = const 5\n"
        "  %4 = bin * %3 %0\n"
        "  -> %4"
    )


def test_golden_copy_propagation_through_pairs():
    fn = B.lam(
        "x",
        NAT,
        B.let(
            "p",
            B.pair(B.v("x"), B.add(B.v("x"), 1)),
            B.add(B.fst(B.v("p")), B.snd(B.v("p"))),
        ),
    )
    block = lower_function(fn)
    assert format_block(fold_and_cse(block)) == (
        "block(%0:N):\n"
        "  %1 = const 1\n"
        "  %2 = bin + %0 %1\n"
        "  %3 = pair %0 %2\n"
        "  %4 = bin + %0 %2\n"
        "  -> %4"
    )


def test_golden_cse():
    fn = B.lam("x", NAT, B.add(B.mul(B.v("x"), B.v("x")), B.mul(B.v("x"), B.v("x"))))
    block = lower_function(fn)
    assert format_block(fold_and_cse(block)) == (
        "block(%0:N):\n"
        "  %1 = bin * %0 %0\n"
        "  %2 = bin + %1 %1\n"
        "  -> %2"
    )


def test_golden_dce_keeps_semantic_traps():
    # the dead `x + 1` is dropped; the dead `1 / x` (division by zero when
    # x = 0) must survive — its trap is part of the program's meaning
    fn = B.lam(
        "x",
        NAT,
        B.let("dead", B.add(B.v("x"), 1), B.let("trap", B.div(1, B.v("x")), B.v("x"))),
    )
    block = lower_function(fn)
    assert format_block(dead_code_elimination(block)) == (
        "block(%0:N):\n"
        "  %1 = const 1\n"
        "  %2 = bin / %1 %0\n"
        "  -> %0"
    )


def test_golden_full_pipeline_in_map_body():
    fn = B.map_(B.lam("y", NAT, B.add(B.mul(B.v("y"), 1), B.sub(B.v("y"), 0))))
    block = hoist_projections(lower_function(fn))
    assert format_block(optimize_block(block)) == (
        "block(%0:[N]):\n"
        "  %1 = map %0 {\n"
        "    block(%2:N):\n"
        "      %3 = bin + %2 %2\n"
        "      -> %3\n"
        "  }\n"
        "  -> %1"
    )


# ---------------------------------------------------------------------------
# Hypothesis: opt_level 2 refines opt_level 0 on random programs
# ---------------------------------------------------------------------------


def _nat_exprs():
    """Strategy for NAT-typed expression trees over the variable ``x``.

    Division/modulo use a non-zero constant divisor so generated programs
    are total — the refinement property then demands *exact* agreement.
    """
    leaf = st.one_of(st.integers(0, 9).map(B.c), st.just(B.v("x")))

    def extend(children):
        binop = st.builds(
            lambda f, a, b: f(a, b),
            st.sampled_from([B.add, B.sub, B.mul, B.nat_min, B.nat_max]),
            children,
            children,
        )
        divmod_ = st.builds(
            lambda f, a, d: f(a, B.c(d)),
            st.sampled_from([B.div, B.mod]),
            children,
            st.integers(1, 7),
        )
        cond = st.builds(
            lambda c, k, a, b: B.if_(B.lt(c, B.c(k)), a, b),
            children,
            st.integers(0, 20),
            children,
            children,
        )
        return st.one_of(binop, divmod_, cond)

    return st.recursive(leaf, extend, max_leaves=8)


@settings(max_examples=40, deadline=None)
@given(
    expr=_nat_exprs(),
    xs=st.lists(st.integers(0, 50), min_size=0, max_size=12),
    eps=st.sampled_from([1.0, 0.5]),
)
def test_opt2_refines_opt0_on_random_map_programs(expr, xs, eps):
    fn = B.map_(B.lam("x", NAT, expr))
    p0 = compile_nsc(fn, eps=eps, opt_level=0)
    p2 = compile_nsc(fn, eps=eps, opt_level=2)

    def outcome(prog):
        try:
            return prog.run(xs)
        except BVRAMError as e:
            return e

    r0, r2 = outcome(p0), outcome(p2)
    if isinstance(r2, BVRAMError):
        # the optimizer may remove resource faults, never introduce one
        assert isinstance(r0, BVRAMError), f"opt2 trapped but opt0 succeeded: {r2}"
        return
    assert not isinstance(r0, BVRAMError), "opt0 trapped but opt2 succeeded on a total op"
    v0, run0 = r0
    v2, run2 = r2
    assert v0 == v2
    assert run2.time <= run0.time, "optimization grew T'"
    assert run2.work <= run0.work, "optimization grew W'"
    # and both agree with the interpreter
    assert v0 == apply_function(fn, from_python(xs)).value


@settings(max_examples=25, deadline=None)
@given(
    expr=_nat_exprs(),
    x=st.integers(0, 100),
)
def test_opt2_refines_opt0_on_random_scalar_programs(expr, x):
    fn = B.lam("x", NAT, expr)
    p0 = compile_nsc(fn, eps=0.5, opt_level=0)
    p2 = compile_nsc(fn, eps=0.5, opt_level=2)
    v0, run0 = p0.run(x)
    v2, run2 = p2.run(x)
    assert v0 == v2 == apply_function(fn, from_python(x)).value
    assert run2.time <= run0.time
    assert run2.work <= run0.work


# ---------------------------------------------------------------------------
# Mode equivalence: untraced fast path == traced mode, bit for bit
# ---------------------------------------------------------------------------


#: the untraced engine, named in the test ids; ``fused`` is the only one
UNTRACED = ["fused"]


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("engine", UNTRACED)
def test_untraced_totals_match_traced(opt_level, engine):
    from repro.algorithms.quicksort import quicksort_def
    from repro.maprec.translate import translate

    cases = [
        (B.map_(B.lam("x", NAT, B.mul(B.v("x"), B.v("x")))), [3, 1, 4, 1, 5]),
        (translate(quicksort_def()), [5, 3, 8, 1, 9, 2, 7, 4, 6, 0]),
    ]
    for fn, arg in cases:
        prog = compile_nsc(fn, eps=0.5, opt_level=opt_level)
        v_t, r_t = prog.run(arg, trace=True)
        m = BVRAM(prog.n_registers)
        r_u = m.run(prog, prog.encode_input(arg), record_trace=False)
        v_u = prog.decode_output(r_u.registers)
        ctx = (engine, opt_level, arg)
        assert v_t == v_u, ctx
        assert (r_t.time, r_t.work) == (r_u.time, r_u.work), ctx
        assert all((a == b).all() for a, b in zip(r_t.registers, r_u.registers)), ctx
        assert len(r_t.trace) == r_t.time and r_u.trace == [], ctx


@pytest.mark.parametrize("engine", UNTRACED)
def test_untraced_totals_match_traced_on_error_paths(engine):
    x = B.gensym("x")
    fn = B.lam(x, seq(NAT), B.get_(B.v(x)))  # get of a non-singleton traps
    prog = compile_nsc(fn)
    machines = []
    for record_trace in (True, False):
        m = BVRAM(prog.n_registers)
        with pytest.raises(BVRAMError, match="length != 1"):
            m.run(prog, prog.encode_input([1, 2, 3]), record_trace=record_trace)
        machines.append(m)
    traced, untraced = machines
    assert (traced.time, traced.work) == (untraced.time, untraced.work), engine


def test_untraced_respects_max_steps():
    x, y = B.gensym("x"), B.gensym("y")
    diverge = B.while_(B.lam(x, NAT, B.true()), B.lam(y, NAT, B.v(y)))
    prog = compile_nsc(B.lam("z", NAT, B.app(diverge, B.v("z"))))
    with pytest.raises(BVRAMError, match="exceeded"):
        prog.run(1, max_steps=500)


# ---------------------------------------------------------------------------
# Trap parity across opt levels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("opt_level", [0, 1, 2])
def test_semantic_traps_survive_optimization(opt_level):
    x = B.gensym("x")
    cases = [
        (B.lam(x, NAT, B.let("dead", B.div(1, B.v(x)), B.v(x))), 0),  # dead div
        (B.lam(x, seq(NAT), B.get_(B.v(x))), [1, 2]),
        (B.lam(x, NAT, B.error(NAT)), 3),
    ]
    for fn, arg in cases:
        with pytest.raises(NSCEvalError):
            apply_function(fn, from_python(arg))
        prog = compile_nsc(fn, opt_level=opt_level)
        with pytest.raises(BVRAMError):
            prog.run(arg)


@pytest.mark.parametrize("opt_level", [0, 1, 2])
def test_untaken_branch_still_does_not_trap(opt_level):
    x = B.gensym("x")
    fn = B.lam(x, NAT, B.if_(B.gt(B.v(x), 0), B.v(x), B.div(B.v(x), 0)))
    value, _ = compile_nsc(fn, opt_level=opt_level).run(5)
    assert value == from_python(5)


# ---------------------------------------------------------------------------
# Differential battery across opt levels + emitted-code passes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("opt_level", [0, 1])
def test_differential_subset_at_lower_opt_levels(opt_level):
    # the full battery runs at the default level in test_compiler.py; here a
    # representative slice re-runs at the other levels
    for name, fn, args in suite()[:6]:
        for arg in args[:1]:
            rec = run_differential(name, fn, arg, eps=0.5, opt_level=opt_level)
            assert rec.ok, f"{name} at opt_level {opt_level}: {rec}"
            assert rec.opt_level == opt_level


def test_opt2_shrinks_t_w_and_registers_on_the_whole_suite():
    for name, fn, args in suite():
        p0 = compile_nsc(fn, eps=0.5, opt_level=0)
        p2 = compile_nsc(fn, eps=0.5, opt_level=2)
        assert len(p2) <= len(p0), name
        assert p2.n_registers <= p0.n_registers, name
        for arg in args:
            try:
                _, r0 = p0.run(arg)
            except BVRAMError:
                continue
            _, r2 = p2.run(arg)
            assert r2.time <= r0.time, name
            assert r2.work <= r0.work, name


def test_register_reuse_emits_valid_programs():
    from repro.algorithms.mergesort import mergesort_def
    from repro.maprec.translate import translate

    prog = compile_nsc(translate(mergesort_def()), eps=0.5, opt_level=2)
    prog.validate()
    naive = compile_nsc(translate(mergesort_def()), eps=0.5, opt_level=0)
    # the linear scan must reclaim a substantial share of the SSA registers
    assert prog.n_registers < naive.n_registers // 2


def test_opt_level_is_validated():
    fn = B.lam("x", NAT, B.v("x"))
    with pytest.raises(CompileError, match="opt_level"):
        compile_nsc(fn, opt_level=3)
