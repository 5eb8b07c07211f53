"""Tests for the BVRAM ISA and machine (Section 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import oracles as O
from repro.backends.kernels import bm_route_vec, sbm_route_vec
from repro.bvram import BVRAM, BVRAMError, run_program
from repro.bvram import isa
from repro.bvram.programs import (
    broadcast_program,
    cartesian_product_program,
    filter_leq_program,
    pairwise_sum_program,
    saxpy_program,
)


# ---------------------------------------------------------------------------
# Instruction semantics
# ---------------------------------------------------------------------------


def _single_instr_run(instr, inputs, n_registers=8):
    p = isa.Program(n_registers=n_registers, n_inputs=len(inputs), n_outputs=1)
    p.emit(instr)
    p.emit(isa.Halt())
    return run_program(p, inputs)


def test_move_and_arith():
    r = _single_instr_run(isa.Move(dst=2, src=0), [[1, 2, 3]])
    assert r.registers[2].tolist() == [1, 2, 3]
    r = _single_instr_run(isa.Arith(dst=2, op="+", a=0, b=1), [[1, 2], [10, 20]])
    assert r.registers[2].tolist() == [11, 22]
    r = _single_instr_run(isa.Arith(dst=2, op="-", a=0, b=1), [[5, 1], [2, 9]])
    assert r.registers[2].tolist() == [3, 0]  # monus


def test_arith_length_mismatch_is_error():
    with pytest.raises(BVRAMError):
        _single_instr_run(isa.Arith(dst=2, op="+", a=0, b=1), [[1, 2], [1]])


def test_arith_division_by_zero_is_error():
    with pytest.raises(BVRAMError, match="division by zero"):
        _single_instr_run(isa.Arith(dst=2, op="/", a=0, b=1), [[1, 2], [1, 0]])
    with pytest.raises(BVRAMError, match="modulo by zero"):
        _single_instr_run(isa.Arith(dst=2, op="mod", a=0, b=1), [[1, 2], [1, 0]])


def test_arith_add_overflow_is_error():
    """The paper treats out-of-range results as undefined: int64 wrap must raise."""
    big = 2**62
    with pytest.raises(BVRAMError, match="overflow"):
        _single_instr_run(isa.Arith(dst=2, op="+", a=0, b=1), [[big, 1], [big, 1]])
    # the same magnitudes are fine when they do not wrap
    r = _single_instr_run(isa.Arith(dst=2, op="+", a=0, b=1), [[big, 1], [0, 1]])
    assert r.registers[2].tolist() == [big, 2]


def test_arith_mul_overflow_is_error():
    big = 2**32
    with pytest.raises(BVRAMError, match="overflow"):
        _single_instr_run(isa.Arith(dst=2, op="*", a=0, b=1), [[big, 2], [big, 3]])
    # a wrap that lands positive again must still be caught (not only sign flips)
    with pytest.raises(BVRAMError, match="overflow"):
        _single_instr_run(isa.Arith(dst=2, op="*", a=0, b=1), [[2**62], [4]])
    r = _single_instr_run(isa.Arith(dst=2, op="*", a=0, b=1), [[2**31, 2], [2**31, 3]])
    assert r.registers[2].tolist() == [2**62, 6]


def test_arith_mul_by_zero_never_overflows():
    r = _single_instr_run(isa.Arith(dst=2, op="*", a=0, b=1), [[0, 0], [2**62, 1]])
    assert r.registers[2].tolist() == [0, 0]


def test_sequence_instructions():
    r = _single_instr_run(isa.AppendI(dst=2, a=0, b=1), [[1, 2], [3]])
    assert r.registers[2].tolist() == [1, 2, 3]
    r = _single_instr_run(isa.LengthI(dst=2, src=0), [[7, 8, 9]])
    assert r.registers[2].tolist() == [3]
    r = _single_instr_run(isa.EnumerateI(dst=2, src=0), [[7, 8, 9]])
    assert r.registers[2].tolist() == [0, 1, 2]
    r = _single_instr_run(isa.Select(dst=2, src=0), [[3, 0, 1, 0, 0, 4]])
    assert r.registers[2].tolist() == [3, 1, 4]  # the paper's example
    r = _single_instr_run(isa.LoadConst(dst=2, value=9), [[1]])
    assert r.registers[2].tolist() == [9]
    r = _single_instr_run(isa.LoadEmpty(dst=2), [[1]])
    assert r.registers[2].tolist() == []


def test_bm_route_instruction_matches_paper_example():
    # data [a,b,c] with counts [2,0,3] and bound of length 5 -> [a,a,c,c,c]
    assert bm_route_vec(
        np.array([10, 20, 30]), np.array([2, 0, 3]), np.zeros(5, dtype=np.int64)
    ).tolist() == [10, 10, 30, 30, 30]


def test_sbm_route_instruction_matches_paper_example():
    # segments of [a0,a1,b0,b1,b2,c0,c1,c2] with descriptor [2,3,3], counts [2,0,3]
    data = np.array([1, 2, 11, 12, 13, 21, 22, 23])
    out = sbm_route_vec(
        bound=np.zeros(5, dtype=np.int64),
        counts=np.array([2, 0, 3]),
        data=data,
        segments=np.array([2, 3, 3]),
    )
    assert out.tolist() == [1, 2, 1, 2, 21, 22, 23, 21, 22, 23, 21, 22, 23]


def test_bm_route_bad_bound_is_error():
    with pytest.raises(BVRAMError):
        bm_route_vec(np.array([1, 2]), np.array([1, 1]), np.zeros(5, dtype=np.int64))


def test_registers_hold_naturals_only():
    m = BVRAM(2)
    with pytest.raises(BVRAMError):
        m.load(0, [-1, 2])


def test_program_validation():
    p = isa.Program(n_registers=2, n_inputs=1, n_outputs=1)
    p.emit(isa.Move(dst=5, src=0))
    p.emit(isa.Halt())
    with pytest.raises(ValueError):
        p.validate()
    p2 = isa.Program(n_registers=2, n_inputs=1, n_outputs=1)
    p2.emit(isa.Goto(label="nowhere"))
    with pytest.raises(ValueError):
        p2.validate()


def test_duplicate_label_rejected():
    p = isa.Program()
    p.label("x")
    with pytest.raises(ValueError):
        p.label("x")


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


def test_time_counts_instructions_and_work_counts_lengths():
    r = run_program(saxpy_program(), [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert r.time == 3  # two ariths + halt
    # work: mul reads 3+3 writes 3, add reads 3+3 writes 3, halt 0
    assert r.work == 18
    assert [e.opcode for e in r.trace] == ["arith:*", "arith:+", "halt"]


def test_work_scales_with_vector_length():
    small = run_program(saxpy_program(), [[1] * 4, [1] * 4, [1] * 4])
    large = run_program(saxpy_program(), [[1] * 64, [1] * 64, [1] * 64])
    assert large.time == small.time
    assert large.work == small.work * 16


# ---------------------------------------------------------------------------
# Whole programs
# ---------------------------------------------------------------------------


def test_broadcast_program():
    r = run_program(broadcast_program(), [[0] * 7, [13]])
    assert r.output(0) == [13] * 7


def test_filter_program_matches_oracle():
    xs = [3, 15, 0, 10, 99, 7, 10]
    r = run_program(filter_leq_program(10), [xs])
    assert r.output(0) == [x for x in xs if x <= 10]


def test_pairwise_sum_program():
    for xs in ([], [5], [1, 2, 3], list(range(30))):
        r = run_program(pairwise_sum_program(), [xs])
        assert r.output(0) == [sum(xs)]


def test_pairwise_sum_logarithmic_time():
    t_small = run_program(pairwise_sum_program(), [list(range(8))]).time
    t_large = run_program(pairwise_sum_program(), [list(range(128))]).time
    # 3 doublings vs 7: time grows ~2.3x, far from the 16x data growth
    assert t_large <= 3 * t_small


def test_cartesian_product_program():
    r = run_program(cartesian_product_program(), [[1, 2, 3], [7, 8]])
    pairs = list(zip(r.output(1), r.output(0)))
    assert sorted(pairs) == sorted((a, b) for a in [1, 2, 3] for b in [7, 8])


def test_nonterminating_program_hits_step_bound():
    p = isa.Program(n_registers=1, n_inputs=1, n_outputs=1)
    p.label("loop")
    p.emit(isa.Goto(label="loop"))
    machine = BVRAM(1)
    with pytest.raises(BVRAMError):
        machine.run(p, [[1]], max_steps=100)


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=100), max_size=20),
    st.lists(st.integers(min_value=0, max_value=3), max_size=20),
)
@settings(max_examples=40, deadline=None)
def test_bm_route_vec_matches_oracle(data, counts):
    n = min(len(data), len(counts))
    data, counts = data[:n], counts[:n]
    expected = O.bm_route(data, counts)
    out = bm_route_vec(
        np.asarray(data, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        np.zeros(sum(counts), dtype=np.int64),
    )
    assert out.tolist() == expected


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=40))
@settings(max_examples=30, deadline=None)
def test_select_matches_oracle(xs):
    r = _single_instr_run(isa.Select(dst=1, src=0), [xs], n_registers=2)
    assert r.registers[1].tolist() == O.pack_nonzero(xs)


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=40))
@settings(max_examples=30, deadline=None)
def test_pairwise_sum_property(xs):
    r = run_program(pairwise_sum_program(), [xs])
    assert r.output(0) == [sum(xs)]


# ---------------------------------------------------------------------------
# Compiler-era ISA extensions: semantics and BVRAMError paths
#
# The NSC->BVRAM compiler leans on these instructions; every malformed-length
# path must raise BVRAMError (never a bare assert or IndexError), because the
# differential harness distinguishes "undefined program" from "machine bug"
# by exception type.
# ---------------------------------------------------------------------------


def test_un_arith_semantics():
    r = _single_instr_run(isa.UnArith(dst=1, op="log2", src=0), [[0, 1, 2, 3, 1024]])
    assert r.registers[1].tolist() == [0, 0, 1, 1, 10]
    r = _single_instr_run(isa.UnArith(dst=1, op="sqrt", src=0), [[0, 1, 3, 4, 10**18]])
    assert r.registers[1].tolist() == [0, 1, 1, 2, 10**9]


def test_un_arith_rejects_unknown_op():
    with pytest.raises(ValueError):
        isa.UnArith(dst=1, op="exp", src=0)


def test_flag_merge_semantics():
    r = _single_instr_run(
        isa.FlagMerge(dst=3, flags=0, a=1, b=2), [[1, 0, 0, 1, 0], [10, 20], [5, 6, 7]]
    )
    assert r.registers[3].tolist() == [10, 5, 6, 20, 7]


def test_flag_merge_length_mismatches_raise():
    with pytest.raises(BVRAMError, match="flag_merge"):
        _single_instr_run(isa.FlagMerge(dst=3, flags=0, a=1, b=2), [[1, 0], [10, 20], []])
    with pytest.raises(BVRAMError, match="flag_merge"):
        _single_instr_run(isa.FlagMerge(dst=3, flags=0, a=1, b=2), [[1, 0], [10], [5, 6]])


def test_seg_scan_semantics():
    r = _single_instr_run(
        isa.SegScan(dst=2, op="+", data=0, segments=1), [[1, 1, 1, 5, 5], [3, 0, 2]]
    )
    assert r.registers[2].tolist() == [0, 1, 2, 0, 5]
    r = _single_instr_run(
        isa.SegScan(dst=2, op="max", data=0, segments=1), [[3, 1, 4, 1, 5], [5]]
    )
    assert r.registers[2].tolist() == [0, 3, 3, 4, 4]


def test_seg_reduce_semantics():
    r = _single_instr_run(
        isa.SegReduce(dst=2, op="+", data=0, segments=1), [[1, 2, 3, 4], [2, 0, 2]]
    )
    assert r.registers[2].tolist() == [3, 0, 7]
    r = _single_instr_run(
        isa.SegReduce(dst=2, op="max", data=0, segments=1), [[1, 7, 3, 4], [2, 0, 2]]
    )
    assert r.registers[2].tolist() == [7, 0, 4]


def test_segmented_descriptor_mismatch_raises():
    for instr in (
        isa.SegScan(dst=2, op="+", data=0, segments=1),
        isa.SegReduce(dst=2, op="+", data=0, segments=1),
    ):
        with pytest.raises(BVRAMError, match="segment descriptor"):
            _single_instr_run(instr, [[1, 2, 3], [2, 2]])


def test_trap_raises_its_message():
    p = isa.Program(n_registers=1, n_inputs=0, n_outputs=0)
    p.emit(isa.Trap(message="undefined: zip of unequal lengths"))
    with pytest.raises(BVRAMError, match="zip of unequal"):
        run_program(p, [])


def test_load_const_rejects_negative():
    p = isa.Program(n_registers=1, n_inputs=0, n_outputs=0)
    p.emit(isa.LoadConst(dst=0, value=-3))
    p.emit(isa.Halt())
    with pytest.raises(BVRAMError, match="natural"):
        run_program(p, [])


def test_right_shift_by_64_or_more_is_zero():
    """numpy's >> is undefined at >= 64 bits; the machine must define it as 0."""
    r = _single_instr_run(
        isa.Arith(dst=2, op=">>", a=0, b=1), [[1, 2**62, 5], [64, 100, 1]]
    )
    assert r.registers[2].tolist() == [0, 0, 2]


def test_bm_route_length_mismatches_raise():
    with pytest.raises(BVRAMError, match="bm_route"):
        _single_instr_run(isa.BmRoute(dst=3, data=0, counts=1, bound=2), [[1, 2], [1], [1]])
    with pytest.raises(BVRAMError, match="bm_route"):
        _single_instr_run(
            isa.BmRoute(dst=3, data=0, counts=1, bound=2), [[1, 2], [1, 2], [1, 1]]
        )


def test_sbm_route_length_mismatches_raise():
    with pytest.raises(BVRAMError, match="sbm_route"):
        _single_instr_run(
            isa.SbmRoute(dst=4, bound=0, counts=1, data=2, segments=3),
            [[0], [1, 1], [5, 6], [2]],
        )
    with pytest.raises(BVRAMError, match="sbm_route"):
        _single_instr_run(
            isa.SbmRoute(dst=4, bound=0, counts=1, data=2, segments=3),
            [[0], [1], [5, 6], [1]],
        )


def test_seg_reduce_sum_is_exact_and_traps_on_overflow():
    """Per-segment sums must be exact int64 (no float weights) and must trap
    on overflow exactly like arith '+', not wrap silently."""
    r = _single_instr_run(
        isa.SegReduce(dst=2, op="+", data=0, segments=1), [[2**53 + 1, 1], [2]]
    )
    assert r.registers[2].tolist() == [2**53 + 2]
    with pytest.raises(BVRAMError, match="overflow"):
        _single_instr_run(
            isa.SegReduce(dst=2, op="+", data=0, segments=1), [[2**62] * 3, [3]]
        )


def test_seg_scan_sum_traps_on_overflow():
    with pytest.raises(BVRAMError, match="overflow"):
        _single_instr_run(
            isa.SegScan(dst=2, op="+", data=0, segments=1), [[2**62] * 3, [3]]
        )


def test_log2_near_register_width_is_exact():
    """float64 rounds log2(2^63 - 1) up to 63.0; the machine must fix it."""
    r = _single_instr_run(
        isa.UnArith(dst=1, op="log2", src=0), [[2**63 - 1, 2**62, 2**62 - 1]]
    )
    assert r.registers[1].tolist() == [62, 62, 61]
