"""The op table, row by row: every opcode's value, charge, trap and cost.

Every BVRAM instruction class owns one ``step()`` closure
(:mod:`repro.bvram.isa`) that the traced reference and the untraced
``fused`` tier both run.  The table below runs **every** opcode through
both engines:

* each row's destination register must equal a NumPy one-liner written
  independently of the kernels, with ``T'``/``W'`` as Section 2 charges
  them; a trapping row must raise the same message and leave the same
  uncharged prefix on every engine;
* a traced run records the row's name as its opcode, the name the Brent
  and butterfly replays read;
* as host code, each kernel is a constant number of NumPy passes: Section 2
  charges an instruction one unit of ``T'`` whatever its registers hold,
  and the host model fitted on top of it is ``wall ~ alpha*T' + beta*W'``
  (``repro.obs.costcheck``).  A kernel that loops over *segments* in Python
  adds a third term the model cannot see, and the compiler's closure
  broadcast hands ``sbm_route`` one segment per element.  So the profiled
  Python-level call count at 10 segments must equal the count at 10 000,
  and the runs must reach every function ``kernels.py`` defines, so a new
  kernel cannot stay outside the table.

Also here: the three-way differential of ``sbm_route_vec`` against its two
readable oracles (``KERNEL_EXAMPLES`` sets the hypothesis budget; the nightly
job raises it), the register invariant its docstring relies on, and a fresh
interpreter importing each package entry point, so the kernels' place below
the ISA stays free of import cycles.
"""

from __future__ import annotations

import cProfile
import inspect
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import oracles as O
from repro.bvram import BVRAM, BVRAMError, isa, kernels
from repro.compiler import CompileError, compile_nsc
from repro.compiler.codegen import encode_inputs
from repro.nsc import builder as B
from repro.nsc.types import NAT, SeqType
from repro.sa.flattening import CostCounter, SegmentedVector, seq_bm_route

KERNEL_EXAMPLES = int(os.environ.get("KERNEL_EXAMPLES", "200"))

ENGINES = ("reference", "fused")

# ---------------------------------------------------------------------------
# The table: one row per opcode, sized by a segment count
# ---------------------------------------------------------------------------

DATA, SEGS, COUNTS, BOUND, FLAGS, BIG_A, BIG_B, ODDS = range(8)
DST = 8


def _registers(nseg: int) -> list[np.ndarray]:
    """``nseg`` segments of three elements, each routed twice."""
    ones = np.ones(3 * nseg, dtype=np.int64)
    big_a, big_b = ones.copy(), ones.copy()
    # the operand maxima multiply / add up past 2**63 while no entry does:
    # the guarded path of ``arith_add`` / ``arith_mul`` without a trap
    big_a[0] = big_b[1] = 2**62
    return [
        np.arange(3 * nseg, dtype=np.int64) % 5 + 1,  # DATA
        np.full(nseg, 3, dtype=np.int64),  # SEGS
        np.full(nseg, 2, dtype=np.int64),  # COUNTS
        np.zeros(2 * nseg, dtype=np.int64),  # BOUND
        np.tile(np.array([1, 1, 1, 0, 0], dtype=np.int64), nseg),  # FLAGS
        big_a,
        big_b,
        np.arange(3 * nseg, dtype=np.int64) % 7 * 2 + 1,  # ODDS: the second arith operand
    ]


def _by_segment(v: np.ndarray) -> np.ndarray:
    """A three-element-per-segment register as one row per segment."""
    return v.reshape(-1, 3)


#: the binary ops against NumPy on (DATA, ODDS), written without the kernels
_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: np.maximum(a - b, 0),
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b,
    "mod": lambda a, b: a % b,
    ">>": lambda a, b: a >> b,
    "min": np.minimum,
    "max": np.maximum,
    "eq": lambda a, b: (a == b).astype(np.int64),
    "le": lambda a, b: (a <= b).astype(np.int64),
    "lt": lambda a, b: (a < b).astype(np.int64),
}

_UN_ARITH = {
    "log2": lambda a: np.floor(np.log2(a)).astype(np.int64),
    "sqrt": lambda a: np.floor(np.sqrt(a)).astype(np.int64),
}

_SEG_SCAN = {
    "+": lambda r: (np.cumsum(_by_segment(r[DATA]), axis=1) - _by_segment(r[DATA])).ravel(),
    "max": lambda r: np.pad(
        np.maximum.accumulate(_by_segment(r[DATA]), axis=1)[:, :-1], ((0, 0), (1, 0))
    ).ravel(),
}

_SEG_REDUCE = {
    "+": lambda r: _by_segment(r[DATA]).sum(axis=1),
    "max": lambda r: _by_segment(r[DATA]).max(axis=1),
}

def _untouched(registers: list) -> np.ndarray:
    """DST keeps the empty vector a fresh machine starts with."""
    return np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class Row:
    name: str  # the opcode as the trace spells it, then an optional note
    instr: isa.Instruction
    #: the destination register from the inputs, or None for a trapping row
    expect: Optional[Callable[[list], np.ndarray]] = None
    #: the trap message of a trapping row
    error: Optional[str] = None

    @property
    def traps(self) -> bool:
        return self.error is not None

    @property
    def opcode(self) -> str:
        return self.name.split()[0]

    def program(self) -> isa.Program:
        # every jump in the table targets the halt that follows it
        return isa.Program(
            instructions=[self.instr, isa.Halt()],
            labels={"end": 1},
            n_registers=DST + 1,
            n_inputs=DST,
        )

    def charge(self, registers: list) -> tuple[int, int]:
        """``(T', W')`` of the row's program: 1 per instruction executed, plus
        the lengths of the registers each one reads and writes (``halt`` none).
        A raising instruction is not charged; ``trap`` is, before it raises."""
        if self.traps:
            return (1, 0) if isinstance(self.instr, isa.Trap) else (0, 0)
        work = sum(registers[r].size for r in self.instr.registers_read())
        work += sum(self.expect(registers).size for _ in self.instr.registers_written())
        return (1 if isinstance(self.instr, isa.Halt) else 2), work


ROWS = [
    *(
        Row(f"arith:{op}", isa.Arith(DST, op, DATA, ODDS), lambda r, f=f: f(r[DATA], r[ODDS]))
        for op, f in _ARITH.items()
    ),
    Row("arith:+ guarded", isa.Arith(DST, "+", BIG_A, BIG_B), lambda r: r[BIG_A] + r[BIG_B]),
    Row("arith:* guarded", isa.Arith(DST, "*", BIG_A, BIG_B), lambda r: r[BIG_A] * r[BIG_B]),
    Row(
        "arith:+ unequal lengths",
        isa.Arith(DST, "+", DATA, BOUND),
        error="arith +: operands have different lengths {n3} and {n2}",
    ),
    Row("arith:/ by zero", isa.Arith(DST, "/", BOUND, BOUND), error="division by zero"),
    *(
        Row(f"un_arith:{op}", isa.UnArith(DST, op, DATA), lambda r, f=f: f(r[DATA]))
        for op, f in _UN_ARITH.items()
    ),
    Row("move", isa.Move(DST, DATA), lambda r: r[DATA]),
    Row("load_empty", isa.LoadEmpty(DST), lambda r: np.zeros(0, dtype=np.int64)),
    Row("load_const", isa.LoadConst(DST, 7), lambda r: np.array([7])),
    Row(
        "load_const negative",
        isa.LoadConst(DST, -1),
        error="load_const: BVRAM registers hold natural numbers",
    ),
    Row("append", isa.AppendI(DST, DATA, BOUND), lambda r: np.concatenate([r[DATA], r[BOUND]])),
    Row("length", isa.LengthI(DST, DATA), lambda r: np.array([r[DATA].size])),
    Row("enumerate", isa.EnumerateI(DST, DATA), lambda r: np.arange(r[DATA].size)),
    Row("select", isa.Select(DST, FLAGS), lambda r: r[FLAGS][r[FLAGS] != 0]),
    Row(
        "flag_merge",
        isa.FlagMerge(DST, FLAGS, DATA, BOUND),
        # FLAGS is 1 1 1 0 0 per segment: three DATA values, then two BOUND ones
        lambda r: np.hstack([_by_segment(r[DATA]), r[BOUND].reshape(-1, 2)]).ravel(),
    ),
    Row(
        "bm_route",
        isa.BmRoute(DST, data=SEGS, counts=COUNTS, bound=BOUND),
        lambda r: np.repeat(r[SEGS], r[COUNTS]),
    ),
    Row(
        "sbm_route",
        isa.SbmRoute(DST, bound=BOUND, counts=COUNTS, data=DATA, segments=SEGS),
        # every segment of three written twice in a row
        lambda r: np.tile(_by_segment(r[DATA]), 2).ravel(),
    ),
    *(
        Row(f"seg_scan:{op}", isa.SegScan(DST, op, DATA, SEGS), f)
        for op, f in _SEG_SCAN.items()
    ),
    *(
        Row(f"seg_reduce:{op}", isa.SegReduce(DST, op, DATA, SEGS), f)
        for op, f in _SEG_REDUCE.items()
    ),
    Row("goto", isa.Goto("end"), _untouched),
    Row("goto_if_empty", isa.GotoIfEmpty("end", DATA), _untouched),
    Row("halt", isa.Halt(), _untouched),
    Row("trap", isa.Trap("undefined"), error="undefined"),
]

#: the one kernel that still loops over segments, and why it stays:
#: see the comment in ``kernels.seg_scan_vec``
PER_SEGMENT_LOOP = {
    "seg_scan:max": "no constant-pass form measured is as fast on one long segment "
    "(ranks 16x slower, doubling 8x, offsets 1.5x and only below 2**63 / segments); "
    "the compiler never emits it"
}


def _engine_kwargs(engine: str) -> dict:
    return {"record_trace": engine == "reference"}


def _run(row: Row, program: isa.Program, registers: list, engine: str) -> BVRAM:
    """Run ``row`` on a fresh machine, which it returns (totals, registers, trace)."""
    machine = BVRAM(program.n_registers)
    try:
        machine.run(program, registers, **_engine_kwargs(engine))
    except BVRAMError:
        assert row.traps
    else:
        assert not row.traps
    return machine


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_row_value_charge_and_trap(row, engine):
    registers = _registers(4)
    program = row.program()
    machine = BVRAM(program.n_registers)
    if row.traps:
        with pytest.raises(BVRAMError) as err:
            machine.run(program, registers, **_engine_kwargs(engine))
        assert str(err.value) == row.error.format(
            n3=registers[DATA].size, n2=registers[BOUND].size
        )
    else:
        dst = machine.run(program, registers, **_engine_kwargs(engine)).registers[DST]
        assert dst.dtype == np.int64
        assert dst.tolist() == row.expect(registers).tolist()
    assert (machine.time, machine.work) == row.charge(registers)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_traced_run_records_the_row_name(row):
    assert row.instr.opcode == row.opcode
    trace = _run(row, row.program(), _registers(4), "reference").trace
    if row.traps and not isinstance(row.instr, isa.Trap):
        assert trace == []  # the raising instruction is not charged
    else:
        assert trace[0].opcode == row.opcode


def _profile(fn) -> list:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return profiler.getstats()


def _calls(row: Row, program: isa.Program, nseg: int, engine: str) -> int:
    registers = _registers(nseg)
    return sum(e.callcount for e in _profile(lambda: _run(row, program, registers, engine)))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "row",
    [
        pytest.param(
            row,
            id=row.name,
            marks=[pytest.mark.xfail(strict=True, reason=PER_SEGMENT_LOOP[row.name])]
            if row.name in PER_SEGMENT_LOOP
            else [],
        )
        for row in ROWS
    ],
)
def test_call_count_does_not_depend_on_the_segment_count(row, engine):
    program = row.program()
    _run(row, program, _registers(10), engine)  # builds and caches the tier's plan
    assert _calls(row, program, 10, engine) == _calls(row, program, 10_000, engine)


#: the control-flow classes each loop follows itself; every other class has a step()
CONTROL = {isa.Goto, isa.GotoIfEmpty, isa.Halt, isa.Trap}


def test_table_covers_every_opcode():
    instruction_classes = {
        v
        for v in vars(isa).values()
        if isinstance(v, type) and issubclass(v, isa.Instruction) and v is not isa.Instruction
    }
    assert {type(row.instr) for row in ROWS} == instruction_classes
    assert all("OPCODE" in vars(cls) for cls in instruction_classes)
    assert all("step" in vars(cls) for cls in instruction_classes - CONTROL)
    assert not any(hasattr(cls, "step") for cls in CONTROL)
    names = {row.name for row in ROWS}
    assert names >= {
        *(f"arith:{op}" for op in isa.ARITH_OPS),
        *(f"un_arith:{op}" for op in isa.UN_ARITH_OPS),
        *(f"seg_{kind}:{op}" for kind in ("scan", "reduce") for op in isa.SEG_OPS),
    }
    assert set(PER_SEGMENT_LOOP) <= names and len(PER_SEGMENT_LOOP) <= 1


def test_table_reaches_every_kernel_function():
    defined = {
        f.__code__
        for f in (*vars(kernels).values(), *kernels.ARITH_KERNELS.values())
        if inspect.isfunction(f) and f.__module__ == kernels.__name__
    }

    def whole_table():
        for row in ROWS:
            program = row.program()
            for engine in ENGINES:
                _run(row, program, _registers(10), engine)

    reached = {e.code for e in _profile(whole_table) if not isinstance(e.code, str)}
    missing = sorted(c.co_name for c in defined - reached)
    assert not missing, f"kernels.py functions no row of the table runs: {missing}"


# ---------------------------------------------------------------------------
# sbm_route_vec == the two readable loops
# ---------------------------------------------------------------------------

_NAT = st.integers(min_value=0, max_value=2**63 - 1)


@st.composite
def _sbm_cases(draw):
    """0-6 segments; planted length mismatches, none, one or two of them."""
    k = draw(st.integers(0, 6))
    all_ones = draw(st.booleans())  # the descriptor ``distribute_rep`` emits
    segments = [1] * k if all_ones else draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    counts = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    data = draw(st.lists(_NAT, min_size=sum(segments), max_size=sum(segments)))
    bound = [0] * sum(counts)
    for planted in draw(st.sets(st.sampled_from(("counts", "data", "bound")), max_size=2)):
        if planted == "counts":
            counts = counts + [draw(st.integers(0, 3))]
        elif planted == "data":
            data = data + [draw(_NAT)]
        else:
            bound = bound + [0]
    return bound, counts, data, segments


@given(_sbm_cases())
@settings(max_examples=KERNEL_EXAMPLES, deadline=None)
def test_sbm_route_vec_matches_both_oracles(case):
    bound, counts, data, segments = case
    # the checks in the order the instruction makes them: the earliest wins
    if len(counts) != len(segments):
        expected_error = "sbm_route: counts and segment descriptor must have the same length"
    elif sum(segments) != len(data):
        expected_error = "sbm_route: segment descriptor must sum to the data length"
    elif len(bound) != sum(counts):
        expected_error = (
            f"sbm_route: bound register has length {len(bound)}, "
            f"expected sum(counts) = {sum(counts)}"
        )
    else:
        expected_error = None
    args = [np.array(x, dtype=np.int64) for x in case]
    if expected_error is not None:
        with pytest.raises(BVRAMError) as err:
            kernels.sbm_route_vec(*args)
        assert str(err.value) == expected_error
        return
    out = kernels.sbm_route_vec(*args)
    assert out.dtype == np.int64 and out.ndim == 1
    assert out.tolist() == O.sbm_route(data, segments, counts)
    readable = seq_bm_route(SegmentedVector(args[3], args[2]), args[1], CostCounter())
    assert out.tolist() == readable.data.tolist()


# ---------------------------------------------------------------------------
# The precondition of the routing kernels: registers hold naturals
# ---------------------------------------------------------------------------


def _single(instr: isa.Instruction, n_inputs: int) -> isa.Program:
    return isa.Program([instr, isa.Halt()], {}, n_registers=n_inputs + 1, n_inputs=n_inputs)


def test_no_public_entry_puts_a_negative_into_a_register():
    """``bm_route_vec`` / ``sbm_route_vec`` take natural descriptors on trust
    (a sign check would be three profiled calls on every route); this is the
    trust: loads, constants, ingest and monus all refuse or clamp."""
    for values in ([2, -1], np.array([2, -1]), np.array([-1], dtype=np.int64)):
        with pytest.raises(BVRAMError, match="natural numbers"):
            BVRAM(1).load(0, values)
    move = _single(isa.Move(1, 0), 1)
    const = _single(isa.LoadConst(0, -1), 0)
    monus = _single(isa.Arith(2, "-", 0, 1), 2)
    for engine in ENGINES:
        kw = _engine_kwargs(engine)
        with pytest.raises(BVRAMError, match="natural numbers"):
            BVRAM(2).run(move, [[2, -1]], **kw)
        with pytest.raises(BVRAMError, match="natural numbers"):
            BVRAM(1).run(const, [], **kw)
        res = BVRAM(3).run(monus, [[0, 1, 5], [1, 9, 2**63 - 1]], **kw)
        assert res.registers[2].tolist() == [0, 0, 0]
    for requests, t in (([-1], NAT), ([[2, -1]], SeqType(NAT)), ([[[2], [-1]]], SeqType(SeqType(NAT)))):
        with pytest.raises((CompileError, ValueError)):
            encode_inputs(requests, t)
    x = B.gensym("x")
    prog = compile_nsc(B.map_(B.lam(x, NAT, B.add(B.v(x), 1))))
    with pytest.raises((CompileError, ValueError)):
        prog.run([3, -1])
    assert isinstance(prog.run_batch([[3, -1], [4]], return_exceptions=True)[0], Exception)


# ---------------------------------------------------------------------------
# The kernels' layer: no import cycle in any package-entry order
# ---------------------------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize(
    "module",
    ["repro.bvram.isa", "repro.bvram", "repro.backends", "repro.compiler", "repro.serving"],
)
def test_each_entry_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
