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
* **untraced** (``record_trace=False``) — the fast path, delegated to the
  ``fused`` tier (:func:`repro.backends.fused.execute`): the program is
  pre-compiled once into a plan (cached on the program object), no
  :class:`TraceEntry` objects are allocated, and the ``T``/``W`` counters
  accumulate in locals flushed back at every exit (normal, trap, or error).
  In both modes the totals are **bit-identical** — each executed
  instruction is charged 1 time unit plus the post-execution lengths of its
  read and written registers — which ``tests/test_optimize.py``,
  ``tests/test_backends.py`` and ``tests/test_batch.py`` pin.

The traced loop below is the reference the untraced tier is compared against.
It runs the op table: the same cached per-instruction entries the ``fused``
tier groups into blocks (:func:`repro.backends.fused.plan_for`), each
register op's closure built by its class's ``step()`` in
:mod:`repro.bvram.isa`.  What it keeps to itself is the accounting —
``_charge`` sums every executed instruction's registers and records its
``opcode`` — so its totals never depend on ``run_plan``'s block accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import isa
from .errors import BVRAMError


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
    def _charge(self, instr: isa.Instruction) -> None:
        work = 0
        for r in instr.registers_read():
            work += int(self.registers[r].size)
        for r in instr.registers_written():
            work += int(self.registers[r].size)
        self.time += 1
        self.work += work
        self.trace.append(TraceEntry(instr.opcode, work))

    def run(
        self,
        program: isa.Program,
        inputs: Optional[Sequence[Sequence[int]]] = None,
        max_steps: int = 10_000_000,
        record_trace: bool = True,
    ) -> RunResult:
        """Execute ``program`` and return the result with T/W counters.

        ``record_trace=False`` selects the untraced fast path: identical
        ``T``/``W`` totals and final registers, but no per-instruction trace
        (``RunResult.trace`` comes back empty) and substantially less
        per-step interpreter overhead: it runs the ``fused`` plan.
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
        # ``repro.backends`` imports this package, so it is imported at call time
        if not record_trace:
            from ..backends.fused import execute

            execute(self, program, max_steps)
            return RunResult(
                registers=[r.copy() for r in self.registers],
                time=self.time,
                work=self.work,
                trace=[],
            )
        from ..backends.base import HALT, JUMP, STEP, step_budget_error
        from ..backends.fused import plan_for

        plan = plan_for(program)
        code = program.instructions
        regs = self.registers
        pc = 0
        steps = 0
        while pc < len(code):
            if steps >= max_steps:
                raise step_budget_error(max_steps)
            steps += 1
            instr = code[pc]
            kind, payload, _ = plan[pc]
            pc += 1
            if kind == STEP:
                payload(regs)
                self._charge(instr)
            elif kind == JUMP:
                self._charge(instr)
                target = payload(regs)
                if target >= 0:
                    pc = target
            elif kind == HALT:
                self._charge(instr)
                break
            else:  # TRAP: the payload is the message
                self._charge(instr)
                raise BVRAMError(payload)

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
