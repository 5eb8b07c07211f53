"""The BVRAM interpreter with the Section 2 time/work accounting.

Registers hold NumPy ``int64`` vectors.  For a terminating execution, the
parallel time ``T`` is the number of instructions executed (each instruction
counts 1) and the work ``W`` is the sum over executed instructions of the
lengths of their input and output registers.

Execution has two modes:

* **traced** (``record_trace=True``, the default) — records a
  per-instruction *trace* (opcode, work) so that the butterfly
  implementation (Proposition 2.1) and the Brent scheduler (Proposition 3.2)
  can replay executions step by step;
* **untraced** (``record_trace=False``) — the fast path, delegated to a
  pluggable :mod:`repro.backends` backend: the program is pre-compiled once
  into a plan (cached on the program object), no :class:`TraceEntry`
  objects are allocated, and the ``T``/``W`` counters accumulate in locals
  flushed back at every exit (normal, trap, or error).  ``backend=``
  selects the tier (``fused`` / ``vector``).  In every mode the totals are
  **bit-identical** to a traced run of the same program — each executed
  instruction is charged 1 time unit plus the post-execution lengths of its
  read and written registers — which ``tests/test_optimize.py``,
  ``tests/test_backends.py`` and ``tests/test_batch.py`` pin.

The traced loop below is the reference every backend is compared against;
the per-op vector kernels it calls live in :mod:`repro.backends.kernels`,
shared with the backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import isa
from .errors import BVRAMError

# ``repro.backends.kernels`` is a leaf module (it imports only
# ``repro.bvram.errors``), so this import is cycle-free in either
# package-entry order.  ``repro.backends.base`` is NOT — it is mid-execution
# when ``import repro.backends`` reaches this module — so backend resolution
# below is imported lazily at call time.
from ..backends.kernels import (
    arith as _arith,
    bm_route_vec,
    flag_merge_vec,
    sbm_route_vec,
    seg_reduce_vec,
    seg_scan_vec,
    un_arith as _un_arith,
)


@dataclass(frozen=True)
class TraceEntry:
    """One executed instruction: its opcode name and its work."""

    opcode: str
    work: int


@dataclass
class RunResult:
    """Outcome of a BVRAM run: final registers, T, W and the instruction trace."""

    registers: list[np.ndarray]
    time: int
    work: int
    trace: list[TraceEntry] = field(default_factory=list)

    def output(self, i: int = 0) -> list[int]:
        """The ``i``-th output register as a Python list."""
        return self.registers[i].tolist()

    def output_array(self, i: int = 0) -> np.ndarray:
        """The ``i``-th output register as the underlying int64 vector.

        Zero-copy: internal callers (marshalling, benchmarks) must treat the
        array as read-only.
        """
        return self.registers[i]


#: the value of every register of a fresh machine: one shared, read-only
#: empty vector (no instruction writes a register in place, and a frozen
#: array makes any that tried fail loudly instead of aliasing machines)
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def _as_vector(values: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise BVRAMError("BVRAM registers hold one-dimensional vectors")
    if arr.size and arr.min() < 0:
        raise BVRAMError("BVRAM registers hold natural numbers")
    return arr


class BVRAM:
    """A Bounded Vector Random Access Machine (Section 2)."""

    def __init__(self, n_registers: int = 8):
        if n_registers <= 0:
            raise ValueError("a BVRAM needs at least one register")
        self.n_registers = n_registers
        self.registers: list[np.ndarray] = [_EMPTY] * n_registers
        self.time = 0
        self.work = 0
        self.trace: list[TraceEntry] = []
        #: plan-entry index at which the last *untraced* run left the
        #: dispatch loop (see :func:`repro.backends.base.run_plan`)
        self.exit_pc = 0

    # -- register access ----------------------------------------------------
    def load(self, i: int, values: Sequence[int] | np.ndarray) -> None:
        """Load an input register before running a program (not counted)."""
        self.registers[i] = _as_vector(values)

    def register(self, i: int) -> list[int]:
        return self.registers[i].tolist()

    def register_array(self, i: int) -> np.ndarray:
        """Register ``i`` as the underlying int64 vector (zero-copy, read-only)."""
        return self.registers[i]

    # -- execution ----------------------------------------------------------
    def _charge(self, opcode: str, instr: isa.Instruction, extra: int = 0) -> None:
        work = extra
        for r in instr.registers_read():
            work += int(self.registers[r].size)
        for r in instr.registers_written():
            work += int(self.registers[r].size)
        self.time += 1
        self.work += work
        self.trace.append(TraceEntry(opcode, work))

    def run(
        self,
        program: isa.Program,
        inputs: Optional[Sequence[Sequence[int]]] = None,
        max_steps: int = 10_000_000,
        record_trace: bool = True,
        backend=None,
    ) -> RunResult:
        """Execute ``program`` and return the result with T/W counters.

        ``record_trace=False`` selects the untraced fast path: identical
        ``T``/``W`` totals and final registers, but no per-instruction trace
        (``RunResult.trace`` comes back empty) and substantially less
        per-step interpreter overhead.  Which untraced engine runs is a
        :mod:`repro.backends` choice — ``backend=`` names one explicitly
        (``"fused"`` or ``"vector"``), otherwise the program's own
        ``backend`` attribute, the ``REPRO_BACKEND`` environment variable
        and finally the ``fused`` default apply.  ``backend`` is ignored in
        traced mode, which needs per-instruction entries.
        """
        program.validate()
        if program.n_registers > self.n_registers:
            raise BVRAMError(
                f"program needs {program.n_registers} registers, machine has {self.n_registers}"
            )
        if inputs is not None:
            if len(inputs) != program.n_inputs:
                raise BVRAMError(
                    f"program expects {program.n_inputs} inputs, got {len(inputs)}"
                )
            for i, values in enumerate(inputs):
                self.load(i, values)

        self.time = 0
        self.work = 0
        self.trace = []
        if not record_trace:
            from ..backends.base import resolve_backend

            engine = resolve_backend(backend, program=program)
            engine.execute(self, program, max_steps)
            return RunResult(
                registers=[r.copy() for r in self.registers],
                time=self.time,
                work=self.work,
                trace=[],
            )
        pc = 0
        steps = 0
        code = program.instructions
        while pc < len(code):
            if steps >= max_steps:
                raise BVRAMError(f"exceeded {max_steps} steps (non-terminating program?)")
            steps += 1
            instr = code[pc]
            pc += 1

            if isinstance(instr, isa.Halt):
                self._charge("halt", instr)
                break
            if isinstance(instr, isa.Goto):
                self._charge("goto", instr)
                pc = program.labels[instr.label]
                continue
            if isinstance(instr, isa.GotoIfEmpty):
                self._charge("goto_if_empty", instr)
                if self.registers[instr.src].size == 0:
                    pc = program.labels[instr.label]
                continue
            if isinstance(instr, isa.Move):
                self.registers[instr.dst] = self.registers[instr.src].copy()
                self._charge("move", instr)
                continue
            if isinstance(instr, isa.Arith):
                self.registers[instr.dst] = _arith(
                    instr.op, self.registers[instr.a], self.registers[instr.b]
                )
                self._charge(f"arith:{instr.op}", instr)
                continue
            if isinstance(instr, isa.LoadEmpty):
                self.registers[instr.dst] = np.zeros(0, dtype=np.int64)
                self._charge("load_empty", instr)
                continue
            if isinstance(instr, isa.LoadConst):
                if instr.value < 0:
                    raise BVRAMError("load_const: BVRAM registers hold natural numbers")
                self.registers[instr.dst] = np.array([instr.value], dtype=np.int64)
                self._charge("load_const", instr)
                continue
            if isinstance(instr, isa.AppendI):
                self.registers[instr.dst] = np.concatenate(
                    [self.registers[instr.a], self.registers[instr.b]]
                )
                self._charge("append", instr)
                continue
            if isinstance(instr, isa.LengthI):
                self.registers[instr.dst] = np.array(
                    [self.registers[instr.src].size], dtype=np.int64
                )
                self._charge("length", instr)
                continue
            if isinstance(instr, isa.EnumerateI):
                self.registers[instr.dst] = np.arange(
                    self.registers[instr.src].size, dtype=np.int64
                )
                self._charge("enumerate", instr)
                continue
            if isinstance(instr, isa.BmRoute):
                self.registers[instr.dst] = bm_route_vec(
                    self.registers[instr.data],
                    self.registers[instr.counts],
                    self.registers[instr.bound],
                )
                self._charge("bm_route", instr)
                continue
            if isinstance(instr, isa.SbmRoute):
                self.registers[instr.dst] = sbm_route_vec(
                    self.registers[instr.bound],
                    self.registers[instr.counts],
                    self.registers[instr.data],
                    self.registers[instr.segments],
                )
                self._charge("sbm_route", instr)
                continue
            if isinstance(instr, isa.Select):
                src = self.registers[instr.src]
                self.registers[instr.dst] = src[src != 0]
                self._charge("select", instr)
                continue
            if isinstance(instr, isa.UnArith):
                self.registers[instr.dst] = _un_arith(instr.op, self.registers[instr.src])
                self._charge(f"un_arith:{instr.op}", instr)
                continue
            if isinstance(instr, isa.FlagMerge):
                self.registers[instr.dst] = flag_merge_vec(
                    self.registers[instr.flags],
                    self.registers[instr.a],
                    self.registers[instr.b],
                )
                self._charge("flag_merge", instr)
                continue
            if isinstance(instr, isa.SegScan):
                self.registers[instr.dst] = seg_scan_vec(
                    instr.op, self.registers[instr.data], self.registers[instr.segments]
                )
                self._charge(f"seg_scan:{instr.op}", instr)
                continue
            if isinstance(instr, isa.SegReduce):
                self.registers[instr.dst] = seg_reduce_vec(
                    instr.op, self.registers[instr.data], self.registers[instr.segments]
                )
                self._charge(f"seg_reduce:{instr.op}", instr)
                continue
            if isinstance(instr, isa.Trap):
                self._charge("trap", instr)
                raise BVRAMError(instr.message)
            raise BVRAMError(f"unknown instruction {instr!r}")

        return RunResult(
            registers=[r.copy() for r in self.registers],
            time=self.time,
            work=self.work,
            trace=list(self.trace),
        )


def run_program(
    program: isa.Program,
    inputs: Sequence[Sequence[int]],
    n_registers: Optional[int] = None,
) -> RunResult:
    """Convenience helper: build a machine, run ``program`` on ``inputs``."""
    machine = BVRAM(n_registers or program.n_registers)
    return machine.run(program, inputs)
