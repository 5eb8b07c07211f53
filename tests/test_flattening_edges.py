"""Edge cases of the Map Lemma module (:mod:`repro.sa.flattening`, Lemma 7.2).

Targets the corners the main E6 experiment never visits: empty inputs,
single-element segments, extreme ``eps`` values and elements that finish in
zero iterations — all three ``seq_while_*`` schemes must agree with the
scalar oracle on every one of them.  The last section does the same for the
*compiled* flattening of a ``map``'s closure (``flatten.distribute_rep``),
of a branch's pack (``flatten.pack_field``) and of the rotated Lemma 7.2
loop (``Flattener._compile_while``).
"""

import numpy as np
import pytest

from repro.bvram import BVRAM, BVRAMError, isa
from repro.compiler import compile_nsc
from repro.compiler.batch import BatchError
from repro.compiler.codegen import Emitter
from repro.compiler.difftest import _collatz_steps
from repro.compiler.flatten import Flattener, RScalar
from repro.nsc import builder as B
from repro.nsc.eval import NSCEvalError, apply_function
from repro.nsc.types import NAT, UNIT, prod, seq
from repro.nsc.values import from_python, to_python
from repro.serving import ShardExecutor
from repro.sa.flattening import (
    CostCounter,
    SegmentedVector,
    python_while_reference,
    seq_bm_route,
    seq_filter,
    seq_lengths,
    seq_map_scalar,
    seq_while_simple,
    seq_while_staged,
    seq_while_unbounded,
)


# ---------------------------------------------------------------------------
# SegmentedVector structure
# ---------------------------------------------------------------------------


def test_segmented_vector_empty_roundtrip():
    sv = SegmentedVector.from_nested([])
    assert len(sv) == 0 and sv.total == 0
    assert sv.to_nested() == []


def test_segmented_vector_with_empty_segments():
    nested = [[], [1], [], [2, 3], []]
    sv = SegmentedVector.from_nested(nested)
    assert sv.segments.tolist() == [0, 1, 0, 2, 0]
    assert sv.to_nested() == nested


def test_seq_map_scalar_over_all_empty_segments():
    sv = SegmentedVector.from_nested([[], [], []])
    cost = CostCounter()
    out = seq_map_scalar(sv, lambda d: d + 1, cost)
    assert out.to_nested() == [[], [], []]
    assert cost.time == 1 and cost.work == 0


def test_seq_lengths_and_filter_on_singletons():
    sv = SegmentedVector.from_nested([[4], [0], [9]])
    cost = CostCounter()
    assert seq_lengths(sv, cost).tolist() == [1, 1, 1]
    out = seq_filter(sv, lambda d: d > 0, cost)
    assert out.to_nested() == [[4], [], [9]]


def test_seq_bm_route_zero_counts_drop_segments():
    sv = SegmentedVector.from_nested([[1, 2], [3], [4, 5, 6]])
    cost = CostCounter()
    out = seq_bm_route(sv, np.array([0, 2, 0]), cost)
    assert out.to_nested() == [[3], [3]]
    with pytest.raises(ValueError):
        seq_bm_route(sv, np.array([1, 1]), cost)


# ---------------------------------------------------------------------------
# The while schemes at the edges
# ---------------------------------------------------------------------------

_PRED = lambda v: v > 1  # noqa: E731
_STEP = lambda v: v >> 1  # noqa: E731


def _all_schemes(values, eps):
    return {
        "unbounded": seq_while_unbounded(values, _PRED, _STEP),
        "simple": seq_while_simple(values, _PRED, _STEP),
        "staged": seq_while_staged(values, _PRED, _STEP, eps),
    }


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.05])
def test_while_schemes_agree_on_empty_input(eps):
    oracle, _ = python_while_reference([], _PRED, _STEP)
    for name, res in _all_schemes([], eps).items():
        assert res.values.tolist() == oracle, name
        assert res.iterations == 0


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.05])
def test_while_schemes_agree_on_zero_iteration_elements(eps):
    # 0 and 1 fail the predicate before the first step; mixtures exercise the
    # initial-finishers sink path of every scheme
    values = [0, 1, 0, 1, 1]
    oracle, _ = python_while_reference(values, _PRED, _STEP)
    for name, res in _all_schemes(values, eps).items():
        assert res.values.tolist() == oracle, name
        assert res.iterations == 0


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25, 0.05])
def test_while_schemes_agree_on_mixed_input(eps):
    values = [0, 1, 7, 1024, 2, 1, 65536, 3]
    oracle, _ = python_while_reference(values, _PRED, _STEP)
    for name, res in _all_schemes(values, eps).items():
        assert res.values.tolist() == oracle, name


def test_staged_eps_one_is_single_stage():
    """eps = 1 means r = 1 stage: the final accumulator is touched once."""
    values = list(range(1, 65))
    res = seq_while_staged(values, _PRED, _STEP, 1.0)
    oracle, _ = python_while_reference(values, _PRED, _STEP)
    assert res.values.tolist() == oracle
    assert res.cost.max_registers == 3  # bounded registers regardless of eps


def test_staged_tiny_eps_flushes_every_batch():
    """eps -> 0 makes every batch its own stage; values still agree and the
    register bound stays 3 (the point of Lemma 7.2)."""
    values = list(range(1, 65))
    res = seq_while_staged(values, _PRED, _STEP, 0.01)
    oracle, _ = python_while_reference(values, _PRED, _STEP)
    assert res.values.tolist() == oracle
    assert res.cost.max_registers == 3


def test_staged_eps_out_of_range_raises():
    with pytest.raises(ValueError):
        seq_while_staged([1, 2], _PRED, _STEP, 0.0)
    with pytest.raises(ValueError):
        seq_while_staged([1, 2], _PRED, _STEP, 1.5)


def test_staged_work_between_unbounded_and_simple_on_skewed_profile():
    """On a maximally skewed finishing profile (countdown: every element has a
    distinct finishing time, so there are ~n batches) the staged scheme must
    beat the naive accumulator while paying more than the unbounded ideal."""
    pred = lambda v: v > 0  # noqa: E731
    step = lambda v: v - 1  # noqa: E731
    values = list(range(1, 129))
    sizes = np.full(len(values), 16)
    base = seq_while_unbounded(values, pred, step, sizes).cost.work
    naive = seq_while_simple(values, pred, step, sizes).cost.work
    staged = seq_while_staged(values, pred, step, 0.5, sizes).cost.work
    assert base <= staged <= naive
    # and the Lemma 7.2 margin is substantive, not a tie
    assert staged < 0.5 * naive


def test_result_sizes_validation():
    with pytest.raises(ValueError):
        seq_while_staged([1, 2, 3], _PRED, _STEP, 0.5, result_sizes=[1, 2])


# ---------------------------------------------------------------------------
# The compiled closure broadcast (Definition 3.1 map rule, the ``p2`` term)
# ---------------------------------------------------------------------------
#
# ``flatten.distribute_rep`` replicates a ``map`` body's captured variable
# once per element with ``sbm_route``; its three emitting branches are a
# scalar field, a sum tag and a segment descriptor.  The fuzz grammar only
# captures scalars (``fuzz_gen._map_scope``), so sequence-valued closures and
# their empty / singleton / uneven shapes are pinned here, through the whole
# chain: interpreter == opt0 == opt2 == traced == fused ==
# run_batch on values and trap text, ``T'``/``W'`` equal across the engines
# of one program.

ENGINES = ("traced", "fused")


def _captures(closure_type, make_body, bind=lambda term: term):
    """``(c0, xs) -> let c = bind(c0) in map(x => body(x, c))(xs)``, ``c0`` of
    ``closure_type``; ``bind`` builds closure values plain data cannot spell."""
    p, x, c = B.gensym("p"), B.gensym("x"), B.gensym("c")
    mapped = B.app(B.map_(B.lam(x, NAT, make_body(B.v(x), B.v(c)))), B.snd(B.v(p)))
    return B.lam(p, prod(closure_type, seq(NAT)), B.let(c, bind(B.fst(B.v(p))), mapped))


def _captures_under_rows(closure_type, make_body):
    """``(c, rows) -> map(row => map(x => body(x, c))(row))(rows)``: the inner
    broadcast replicates by the rows' own (uneven, possibly zero) lengths."""
    p, x, c, row = B.gensym("p"), B.gensym("x"), B.gensym("c"), B.gensym("row")
    inner = B.map_(B.lam(x, NAT, make_body(B.v(x), B.v(c))))
    outer = B.map_(B.lam(row, seq(NAT), B.app(inner, B.v(row))))
    return B.lam(
        p, prod(closure_type, seq(seq(NAT))), B.let(c, B.fst(B.v(p)), B.app(outer, B.snd(B.v(p))))
    )


def _tag_odd(ys):
    """``[N] -> [N + ()]``: evens stay, odds become the unit alternative."""
    y = B.gensym("y")
    tag = B.lam(y, NAT, B.if_(B.eq(B.mod(B.v(y), 2), 0), B.inl(B.v(y), UNIT), B.inr(B.unit(), NAT)))
    return B.app(B.map_(tag), ys)


_PAIR_UP = lambda x, c: B.pair(x, c)  # noqa: E731  the whole closure, per element

_XS = ([], [5], [1, 2, 3])
_NESTED = ([], [[]], [[], []], [[7]], [[], [1], [2, 3, 4]], [[1, 2], [], [3]])

CLOSURE_PROGRAMS = {
    "N": (_captures(NAT, lambda x, c: B.add(x, c)), [(k, xs) for k in (0, 9) for xs in _XS]),
    "[N]": (
        _captures(seq(NAT), _PAIR_UP),
        [(c, xs) for c in ([], [4], [1, 2, 3]) for xs in _XS],
    ),
    "[[N]]": (_captures(seq(seq(NAT)), _PAIR_UP), [(c, xs) for c in _NESTED for xs in _XS]),
    "[N + ()]": (
        _captures(seq(NAT), _PAIR_UP, bind=_tag_odd),
        [(c, xs) for c in ([], [2], [3], [1, 2, 4, 7, 8]) for xs in _XS],
    ),
    "[[N]] under rows": (
        _captures_under_rows(seq(seq(NAT)), _PAIR_UP),
        [(c, rows) for c in _NESTED for rows in ([], [[]], [[1], [], [2, 3]])],
    ),
    # traps per element: only when the map has an element to evaluate it for
    "get of [N]": (
        _captures(seq(NAT), lambda x, c: B.add(x, B.get_(c))),
        [(c, xs) for c in ([], [4], [1, 2]) for xs in _XS],
    ),
}


def _machine_outcome(prog, inputs, engine, decode):
    machine = BVRAM(prog.n_registers)
    try:
        machine.run(prog, inputs, record_trace=engine == "traced")
    except BVRAMError as e:
        return ("trap", str(e), machine.time, machine.work)
    return ("value", decode(machine.registers), machine.time, machine.work)


def _on_every_engine(prog, inputs, decode):
    traced = _machine_outcome(prog, inputs, "traced", decode)
    for engine in ENGINES[1:]:
        assert _machine_outcome(prog, inputs, engine, decode) == traced, engine
    return traced


@pytest.mark.parametrize("name", CLOSURE_PROGRAMS)
def test_closure_broadcast_through_the_whole_chain(name):
    fn, args = CLOSURE_PROGRAMS[name]
    values = [from_python(a) for a in args]
    expected = []
    for v in values:
        try:
            expected.append(apply_function(fn, v).value)
        except NSCEvalError:
            expected.append(None)
    assert any(e is not None for e in expected)
    trap_texts = set()
    for opt_level in (0, 2):
        prog = compile_nsc(fn, opt_level=opt_level)
        assert any(isinstance(i, isa.SbmRoute) for i in prog.instructions)
        traps = {}
        for i, (v, want) in enumerate(zip(values, expected)):
            tag, got, _, _ = _on_every_engine(prog, prog.encode_input(v), prog.decode_output)
            if want is None:
                assert tag == "trap", (args[i], got)
                traps[i] = got
            else:
                assert (tag, got) == ("value", want), args[i]
        trap_texts.update(traps.values())
        # the whole batch: one run for all inputs when none traps, the same
        # values and the same trap per slot when one does
        fine = [v for v, want in zip(values, expected) if want is not None]
        tag, got, _, _ = _on_every_engine(
            prog,
            prog.encode_batch_input(fine),
            lambda regs: prog.decode_batch_output(regs, len(fine)),
        )
        assert (tag, got) == ("value", [e for e in expected if e is not None])
        assert prog.run_batch(fine) == got
        assert prog._batch_fallback_error is None
        for i, slot in enumerate(prog.run_batch(list(args), return_exceptions=True)):
            if expected[i] is None:
                assert isinstance(slot, BatchError)
                assert (slot.index, slot.cause_text) == (i, traps[i])
            else:
                assert slot == expected[i]
    assert len(trap_texts) <= 1  # opt0 and opt2 name the same trap


# ---------------------------------------------------------------------------
# The pack: one bounded monotone route over the 0/1 mask
# ---------------------------------------------------------------------------


def test_pack_rep_of_a_scalar_is_one_route():
    em = Emitter(reserved=2, value_number=True)
    packed = Flattener(em).pack_rep(RScalar(0), 1)
    (select, route) = em.instructions
    assert select == isa.Select(dst=select.dst, src=1)
    assert route == isa.BmRoute(dst=packed.reg, data=0, counts=1, bound=select.dst)


def test_pack_by_a_count_above_one_traps_loudly():
    em = Emitter(reserved=2)
    out = Flattener(em).pack_field(0, 1)
    em.move(out, dst=0)
    em.halt()
    prog = isa.Program(em.instructions, em.labels, em.n_regs, n_inputs=2, n_outputs=1)
    inputs = [[4, 5, 6], [1, 0, 1]]
    assert _on_every_engine(prog, inputs, lambda regs: regs[0].tolist())[:2] == ("value", [4, 6])
    tag, text, _, _ = _on_every_engine(prog, [[4, 5, 6], [2, 0, 1]], None)
    assert (tag, text) == ("trap", "bm_route: counts must sum to the length of the bound register")


def test_a_branch_passes_full_width_values():
    """``case`` packs each branch's inputs; a pack never adds, so ``2**63-1`` survives."""
    x = B.gensym("x")
    fn = B.map_(B.lam(x, NAT, B.if_(B.eq(B.v(x), 0), B.v(x), B.v(x))))
    arg = [5, 2**63 - 1, 0]
    assert to_python(apply_function(fn, from_python(arg)).value) == arg
    for opt_level in (0, 2):
        prog = compile_nsc(fn, opt_level=opt_level)
        outcome = _on_every_engine(prog, prog.encode_input(from_python(arg)), prog.decode_output)
        assert to_python(outcome[1]) == arg
        batch = [arg, [], [2**63 - 1], arg]
        want = [from_python(b) for b in batch]
        assert prog.run_batch(batch) == want
        assert prog._batch_fallback_error is None  # one batched run, no per-input retry
        with ShardExecutor(n_workers=1) as ex:
            assert prog.run_batch(batch, executor=ex) == want


# ---------------------------------------------------------------------------
# The rotated Lemma 7.2 loop: predicate before the loop and after each step
# ---------------------------------------------------------------------------


def _through_the_chain(fn, args):
    """Every arg through opt0/opt2 x traced/fused, ``run_batch`` and a
    one-worker shard: the interpreter's value, or its error's text as the
    trap, and the same ``T'``/``W'`` on every engine of one program."""
    values = [from_python(a) for a in args]
    expected = []
    for v in values:
        try:
            expected.append(apply_function(fn, v).value)
        except NSCEvalError as e:
            expected.append(e)
    outcomes = []
    for opt_level in (0, 2):
        prog = compile_nsc(fn, opt_level=opt_level)
        for v, want in zip(values, expected):
            tag, got, _, _ = _on_every_engine(prog, prog.encode_input(v), prog.decode_output)
            if isinstance(want, NSCEvalError):
                assert (tag, got) == ("trap", str(want)), to_python(v)
            else:
                assert (tag, got) == ("value", want), to_python(v)
            outcomes.append((tag, got))
        batched = prog.run_batch(list(args), return_exceptions=True)
        with ShardExecutor(n_workers=1) as ex:
            sharded = prog.run_batch(list(args), return_exceptions=True, executor=ex)
        for i, want in enumerate(expected):
            for slot in (batched[i], sharded[i]):
                if isinstance(want, NSCEvalError):
                    assert isinstance(slot, BatchError)
                    assert (slot.index, slot.cause_text) == (i, str(want))
                else:
                    assert slot == want, args[i]
    return outcomes


def test_zero_step_loops_through_the_whole_chain():
    """Empty input, an all-false first predicate and ``[1]``: the loop never
    steps, only the entry predicate runs."""
    outcomes = _through_the_chain(_collatz_steps(), [[], [0, 1, 1, 0], [1]])
    assert [to_python(got) for _, got in outcomes] == [[], [0, 1, 1, 0], [1]] * 2


def test_predicate_trap_wins_over_a_body_overflow_of_the_same_step():
    """``p`` divides 12 by ``x ∸ 3``, ``g`` overflows int64 at ``x = 7``.  On
    ``[14, 6]`` both elements step to ``[7, 3]``; the predicate of that step
    traps on 3 before the body would overflow on 7, on every engine."""
    x, y = B.gensym("x"), B.gensym("y")
    pred = B.lam(x, NAT, B.gt(B.div(12, B.sub(B.v(x), 3)), 0))
    body = B.lam(y, NAT, B.if_(B.eq(B.v(y), 7), B.mul(B.v(y), 2**62), B.div(B.v(y), 2)))
    fn = B.map_(B.while_(pred, body))
    outcomes = _through_the_chain(fn, [[14, 6], [6]])
    assert outcomes == [("trap", "division by zero")] * 4


def test_one_pack_per_working_set_field_per_iteration():
    """The iteration packs each working-set field once, by ``live``, and
    never by the predicate's tag (the rotation's whole point)."""
    p, k, x, y, z = (B.gensym(c) for c in "pkxyz")
    loop = B.while_(B.lam(y, NAT, B.lt(B.v(y), B.v(k))), B.lam(z, NAT, B.mul(B.v(z), 2)))
    mapped = B.app(B.map_(B.lam(x, NAT, B.app(loop, B.v(x)))), B.snd(B.v(p)))
    fn = B.lam(p, prod(NAT, seq(NAT)), B.let(k, B.fst(B.v(p)), mapped))
    prog = compile_nsc(fn, opt_level=0)
    (go,) = [prog.labels[name] for name in prog.labels if name.startswith("while_go")]
    (top,) = [name for name in prog.labels if name.startswith("while_top")]
    end = next(
        pc for pc in range(go, len(prog.instructions)) if prog.instructions[pc] == isa.Goto(top)
    )
    iteration = prog.instructions[go:end]
    set_live = iteration[-1]  # the back edge's last move: live := new_live
    (new_live,) = [i for i in iteration if isinstance(i, isa.FlagMerge) and i.dst == set_live.src]
    assert new_live.flags == set_live.dst
    routes = [i for i in iteration if isinstance(i, isa.BmRoute)]
    # the working set is the state and the captured bound: two fields
    assert len([r for r in routes if r.counts == set_live.dst]) == 2
    assert not [r for r in routes if r.counts == new_live.a]
    arg = (9, [1, 3, 9, 12])
    want = apply_function(fn, from_python(arg)).value
    assert to_python(want) == [16, 12, 9, 12] and prog.run(arg)[0] == want
