"""The two emitted-code passes: linear time, and the same code as before.

``optimize.eliminate_dead_instructions`` (dead-register elimination) and
``codegen.reuse_registers`` (linear-scan renumbering) used to be a fixpoint
that rebuilt the instruction list once per round and a ``while changed``
loop over loop regions × registers.  Both are now one pass (a worklist of
dead writers; merged loop spans, bisection and heaps).  The earlier versions
are kept below, verbatim, as the readable oracles: on every program of the
differential suite (three ``eps``), every benchmark
program and ``FUZZ_CASES`` fuzz seeds (default 200; the nightly job raises
it) the new passes must give the same instructions, labels and register
count.  Then the pin: on synthetic instruction lists, with no compile
involved, each pass's profiled call count at size ``4n`` stays within 4.5x
of its count at ``n`` — the old passes were quadratic there.  Last, the
corner cases of both passes and the emitter's exact value-numbering
eviction.
"""

from __future__ import annotations

import cProfile
import os
import sys
from dataclasses import replace

import pytest

from fuzz_gen import gen_case
from repro import compiler
from repro.bvram import isa
from repro.compiler import compile_nsc, difftest
from repro.compiler.codegen import Emitter, reuse_registers
from repro.compiler.optimize import eliminate_dead_instructions
from repro.maprec import translate

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench.workloads import WORKLOADS  # noqa: E402

BASE_SEED = int(os.environ.get("FUZZ_SEED", "20260726"))
N_CASES = int(os.environ.get("FUZZ_CASES", "200"))
N_CHUNKS = 8

# ---------------------------------------------------------------------------
# The oracles: both passes as they were before they became linear
# ---------------------------------------------------------------------------


def old_eliminate_dead_instructions(
    instructions: list,
    labels: dict[str, int],
    n_outputs: int,
) -> tuple[list, dict[str, int]]:
    """Drop instructions whose destination is never read, to a fixpoint.

    Output registers ``0 .. n_outputs-1`` are live at program end.  Only
    side-effect-free instructions are candidates; division/modulo keep their
    division-by-zero trap, and control flow (``goto``/``trap``/``halt``)
    writes no registers so it is never touched.  Jump labels are re-indexed
    to account for removed instructions.
    """

    def removable(instr) -> bool:
        if not instr.registers_written():
            return False
        if isinstance(instr, isa.Arith) and instr.op in ("/", "mod"):
            return False  # semantic trap: division by zero
        return True

    while True:
        read: set[int] = set(range(n_outputs))
        for instr in instructions:
            read.update(instr.registers_read())
        dead = [
            i
            for i, instr in enumerate(instructions)
            if removable(instr) and not (set(instr.registers_written()) & read)
        ]
        if not dead:
            return instructions, labels
        dead_set = set(dead)
        # labels point at instruction indices: shift by the removals before them
        kept = [instr for i, instr in enumerate(instructions) if i not in dead_set]
        shift = [0] * (len(instructions) + 1)
        removed = 0
        for i in range(len(instructions) + 1):
            shift[i] = removed
            if i < len(instructions) and i in dead_set:
                removed += 1
        labels = {name: idx - shift[idx] for name, idx in labels.items()}
        instructions = kept


def _old_renumber(instr: isa.Instruction, mapping: dict[int, int]) -> isa.Instruction:
    fields = isa.REG_FIELDS.get(type(instr))
    if not fields:
        return instr
    return replace(instr, **{f: mapping[getattr(instr, f)] for f in fields})


def old_reuse_registers(
    instructions: list[isa.Instruction],
    labels: dict[str, int],
    n_inputs: int,
    n_outputs: int,
) -> tuple[list[isa.Instruction], int]:
    """Renumber registers by linear scan so dead ones are reused.

    The emitter allocates a fresh register per value (SSA-style), which is
    clean but means a quicksort program asks for thousands of registers.
    This pass computes a conservative live interval per register — first to
    last textual occurrence, extended to cover any loop region
    ``[label, backward-jump]`` the interval overlaps — and reassigns numbers
    with a free pool.  Inputs and outputs keep their ABI positions
    (registers ``0..max(n_inputs, n_outputs)-1`` are pinned) and an interval
    never shares a number with one ending at the same instruction, so an
    instruction's destination cannot alias its operands: every register of
    every executed instruction holds exactly the vector it held in the
    unoptimized program, which keeps the ``W'`` accounting bit-identical.
    """
    n = len(instructions)
    first: dict[int, int] = {}
    last: dict[int, int] = {}

    def touch(reg: int, pos: int) -> None:
        if reg not in first:
            first[reg] = pos
        first[reg] = min(first[reg], pos)
        last[reg] = max(last.get(reg, pos), pos)

    for i, instr in enumerate(instructions):
        for r in instr.registers_read():
            touch(r, i)
        for r in instr.registers_written():
            touch(r, i)

    pinned = max(n_inputs, n_outputs)
    for r in range(n_inputs):
        touch(r, -1)  # inputs are live from before the first instruction
    for r in range(n_outputs):
        touch(r, n)  # outputs are read after the last instruction

    # loop regions: [target, jump-position] for every backward jump
    regions = [
        (labels[instr.label], i)
        for i, instr in enumerate(instructions)
        if isinstance(instr, (isa.Goto, isa.GotoIfEmpty)) and labels[instr.label] <= i
    ]
    changed = True
    while changed:  # extending into one region may reach another
        changed = False
        for lo, hi in regions:
            for r in first:
                if first[r] <= hi and last[r] >= lo:  # interval overlaps region
                    if first[r] > lo or last[r] < hi:
                        first[r] = min(first[r], lo)
                        last[r] = max(last[r], hi)
                        changed = True

    mapping: dict[int, int] = {r: r for r in range(pinned)}
    free: list[int] = []
    next_reg = pinned
    active: list[tuple[int, int]] = []  # (end, new_reg), kept sorted
    for old in sorted((r for r in first if r not in mapping), key=lambda r: first[r]):
        start = first[old]
        while active and active[0][0] < start:  # strict: end == start conflicts
            free.append(active.pop(0)[1])
        if free:
            new = min(free)
            free.remove(new)
        else:
            new = next_reg
            next_reg += 1
        mapping[old] = new
        entry = (last[old], new)
        lo, hi = 0, len(active)
        while lo < hi:
            mid = (lo + hi) // 2
            if active[mid][0] < entry[0]:
                lo = mid + 1
            else:
                hi = mid
        active.insert(lo, entry)

    out = [_old_renumber(instr, mapping) for instr in instructions]
    n_registers = max(max(mapping.values(), default=0) + 1, pinned, 1)
    return out, n_registers


# ---------------------------------------------------------------------------
# The differential: new passes == oracles on what the compiler really emits
# ---------------------------------------------------------------------------


def _checked_dce(instructions, labels, n_outputs):
    want = old_eliminate_dead_instructions(list(instructions), dict(labels), n_outputs)
    got = eliminate_dead_instructions(instructions, labels, n_outputs)
    assert got == want
    _checked_dce.calls += 1
    return got


def _checked_reuse(instructions, labels, n_inputs, n_outputs):
    want = old_reuse_registers(instructions, labels, n_inputs, n_outputs)
    got = reuse_registers(instructions, labels, n_inputs, n_outputs)
    assert got == want
    _checked_reuse.calls += 1
    return got


def _compile_both_ways(fn, **kw) -> None:
    """Compile ``fn`` with each pass checked against its oracle on the way."""
    _checked_dce.calls = _checked_reuse.calls = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiler, "eliminate_dead_instructions", _checked_dce)
        mp.setattr(compiler, "reuse_registers", _checked_reuse)
        compile_nsc(fn, cache=None, **kw)
    assert _checked_dce.calls == _checked_reuse.calls == 1


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
def test_suite_programs_compile_to_the_same_code(eps):
    for _, fn, _ in difftest.suite():
        _compile_both_ways(fn, eps=eps)


def _bench_programs() -> dict:
    programs = {}
    for w in WORKLOADS.values():
        for case in w.cases:
            programs.setdefault(case.name, case.function)
        for name, make in w.compile_only:
            programs.setdefault(name, lambda make=make: translate(make()))
    return programs


@pytest.mark.parametrize("name", sorted(_bench_programs()))
def test_benchmark_programs_compile_to_the_same_code(name):
    _compile_both_ways(_bench_programs()[name]())


@pytest.mark.parametrize("chunk", range(N_CHUNKS))
def test_fuzz_programs_compile_to_the_same_code(chunk):
    for seed in range(BASE_SEED + chunk, BASE_SEED + N_CASES, N_CHUNKS):
        _compile_both_ways(gen_case(seed).fn)


# ---------------------------------------------------------------------------
# The pin: call counts grow linearly on the inputs that made the old passes
# quadratic
# ---------------------------------------------------------------------------


def _calls(fn) -> int:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return sum(e.callcount for e in profiler.getstats())


def _dead_chain(n: int) -> tuple[list, dict[str, int]]:
    """Output 0 plus a chain of ``n`` instructions, each read only by the next
    and the last by nobody: removing one makes the one before it dead."""
    instructions = [isa.LoadConst(dst=0, value=7), isa.LoadConst(dst=1, value=1)]
    for r in range(2, n + 1):
        instructions.append(isa.Arith(dst=r, op="+", a=r - 1, b=r - 1))
    instructions.append(isa.Halt())
    return instructions, {"end": len(instructions) - 1}


def _chained_loops(n: int) -> tuple[list, dict[str, int]]:
    """``n`` loop regions, each overlapping the next: ``[2k-1, 2k+2]``."""
    instructions, labels = [isa.LoadConst(dst=1, value=1)], {}
    for k in range(n):
        labels[f"l{k}"] = len(instructions)
        instructions.append(isa.Arith(dst=k + 2, op="+", a=k + 1, b=k + 1))
        instructions.append(isa.GotoIfEmpty(label=f"l{max(k - 1, 0)}", src=k + 2))
    instructions.append(isa.Move(dst=0, src=n + 1))
    instructions.append(isa.Halt())
    return instructions, labels


SIZES = (50, 200)


def test_dead_instruction_elimination_is_linear():
    counts = []
    for n in SIZES:
        instructions, labels = _dead_chain(n)
        counts.append(_calls(lambda: eliminate_dead_instructions(instructions, labels, 1)))
        assert eliminate_dead_instructions(instructions, labels, 1)[0] == [
            instructions[0],
            instructions[-1],
        ]
    assert counts[1] <= 4.5 * counts[0], counts


def test_register_reuse_is_linear():
    counts = []
    for n in SIZES:
        instructions, labels = _chained_loops(n)
        counts.append(_calls(lambda: reuse_registers(instructions, labels, 1, 1)))
        assert reuse_registers(instructions, labels, 1, 1) == old_reuse_registers(
            instructions, labels, 1, 1
        )
    assert counts[1] <= 4.5 * counts[0], counts


# ---------------------------------------------------------------------------
# Corner cases
# ---------------------------------------------------------------------------


def test_a_dead_chain_goes_in_one_call():
    instructions, labels = _dead_chain(30)
    kept, new_labels = eliminate_dead_instructions(instructions, labels, 1)
    assert kept == [isa.LoadConst(dst=0, value=7), isa.Halt()]
    assert new_labels == {"end": 1}
    assert eliminate_dead_instructions(kept, new_labels, 1) == (kept, new_labels)


@pytest.mark.parametrize("op", ["/", "mod"])
def test_division_keeps_its_trap_and_its_operands(op):
    instructions = [
        isa.LoadConst(dst=1, value=1),
        isa.LoadConst(dst=2, value=0),
        isa.Arith(dst=3, op=op, a=1, b=2),  # never read, traps at run time
        isa.Arith(dst=4, op="+", a=1, b=1),  # never read
        isa.Halt(),
    ]
    kept, _ = eliminate_dead_instructions(instructions, {}, 0)
    assert kept == instructions[:3] + instructions[4:]


def test_labels_follow_the_removals():
    instructions = [
        isa.LoadConst(dst=0, value=1),
        isa.LoadConst(dst=5, value=2),  # dead, and labelled
        isa.LoadConst(dst=6, value=3),  # dead
        isa.Move(dst=1, src=0),
    ]
    labels = {"dead": 1, "move": 3, "end": 4}
    kept, new_labels = eliminate_dead_instructions(instructions, labels, 2)
    assert kept == [instructions[0], instructions[3]]
    # a label on a removed instruction lands on the next one kept
    assert new_labels == {"dead": 1, "move": 1, "end": 2}
    assert (kept, new_labels) == old_eliminate_dead_instructions(instructions, labels, 2)


def test_an_interval_is_extended_through_two_chained_regions():
    instructions = [
        isa.LoadConst(dst=1, value=1),  # 0: live until 2 by its uses ...
        isa.LoadConst(dst=2, value=2),  # 1
        isa.Arith(dst=3, op="+", a=1, b=2),  # 2  ... but in region [1, 4]
        isa.LoadConst(dst=4, value=4),  # 3
        isa.GotoIfEmpty(label="a", src=3),  # 4: region [1, 4]
        isa.Arith(dst=5, op="+", a=4, b=4),  # 5
        isa.GotoIfEmpty(label="b", src=5),  # 6: region [3, 6], overlaps [1, 4]
        isa.LoadConst(dst=6, value=6),  # 7: after both regions
        isa.Move(dst=0, src=6),  # 8
    ]
    labels = {"a": 1, "b": 3}
    out, n_registers = reuse_registers(instructions, labels, 0, 1)
    assert (out, n_registers) == old_reuse_registers(instructions, labels, 0, 1)
    # register 1 (first used at 0) covers [0, 6]: nothing before 7 takes its number
    assert out[0].dst == 1
    assert all(1 not in instr.registers_written() for instr in out[1:7])
    assert out[7].dst == 1  # free again once both regions are behind


def test_an_input_never_read_keeps_its_register():
    instructions = [
        isa.LoadConst(dst=5, value=1),
        isa.Arith(dst=6, op="+", a=0, b=5),
        isa.Move(dst=0, src=6),
    ]
    out, n_registers = reuse_registers(instructions, {}, 2, 1)
    assert (out, n_registers) == old_reuse_registers(instructions, {}, 2, 1)
    assert all(1 not in instr.registers_written() for instr in out)
    assert n_registers == 4


def test_an_output_that_is_also_an_input():
    instructions = [
        isa.LoadConst(dst=3, value=2),
        isa.LoadConst(dst=4, value=9),  # dead
        isa.Arith(dst=0, op="*", a=0, b=3),  # writes the input in place
        isa.Halt(),
    ]
    kept, labels = eliminate_dead_instructions(instructions, {}, 1)
    assert kept == [instructions[0], instructions[2], instructions[3]]
    out, n_registers = reuse_registers(kept, labels, 1, 1)
    assert (out, n_registers) == old_reuse_registers(kept, labels, 1, 1)
    assert out == [isa.LoadConst(dst=1, value=2), isa.Arith(dst=0, op="*", a=0, b=1), isa.Halt()]
    assert n_registers == 2


# ---------------------------------------------------------------------------
# Value-numbering eviction: exactly the entries that read or hold the register
# ---------------------------------------------------------------------------


def test_a_constant_equal_to_an_overwritten_register_is_still_reused():
    em = Emitter(reserved=6, value_number=True)
    five = em.load_const(5)
    em.move(five, dst=5)  # overwrites register 5, which no entry reads
    assert em.load_const(5) == five
    assert len(em.instructions) == 2


def test_eviction_drops_readers_and_holders_of_the_register():
    em = Emitter(reserved=2, value_number=True)
    s = em.arith("+", 0, 1)
    c = em.load_const(3)
    em.move(1, dst=0)  # register 0 changes: the sum is stale, the constant is not
    assert em.arith("+", 0, 1) != s
    assert em.load_const(3) == c
    em.move(0, dst=c)  # the constant's own register changes: it is stale too
    assert em.load_const(3) != c


def test_a_checkpoint_carries_the_eviction_index():
    em = Emitter(reserved=2, value_number=True)
    s = em.arith("+", 0, 1)
    snapshot = em.vn_checkpoint()
    em.mark(em.new_label("ok"))  # clears the table and its index
    em.vn_restore(snapshot)
    assert em.arith("+", 0, 1) == s
    em.move(1, dst=1)
    assert em.arith("+", 0, 1) != s
