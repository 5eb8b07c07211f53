"""The BVRAM instruction set (Section 2).

A Bounded Vector Random Access Machine has a *fixed* number of vector
registers ``V1 ... Vr``, each holding a finite sequence of naturals.  There
are no scalar registers: a number is a length-1 vector.  The instruction set
is exactly the paper's:

* ``move``            — ``Vi <- Vj``
* ``arith``           — ``Vi <- Vj op Vk`` elementwise, ``op`` in Sigma
* ``load_empty``      — ``Vi <- []``
* ``load_const``      — ``Vi <- [n]``
* ``append``          — ``Vi <- Vj @ Vk``
* ``length``          — ``Vi <- [length(Vj)]``
* ``enumerate``       — ``Vi <- [0 .. length(Vj)-1]``
* ``bm_route``        — ``Vi <- bm-route(Vj, Vk, Vl)`` (bounded monotone routing)
* ``sbm_route``       — ``Vi <- sbm-route(Vj, Vk, Vl, Vm)`` (segmented variant)
* ``select``          — ``Vi <- sigma(Vj)`` (pack the non-zero values)
* ``goto`` / ``goto_if_empty`` — unconditional / conditional jumps
* ``halt``

The NSC->BVRAM compiler (:mod:`repro.compiler`) additionally needs the small
family of *segmented* operations that Section 7's flattening produces — each
of them is an oblivious, monotone data movement (or a per-segment scan), so
Proposition 2.1's butterfly implementation extends to them:

* ``un_arith``        — ``Vi <- op(Vj)`` elementwise, ``op`` in {log2, sqrt}
* ``flag_merge``      — ``Vi <- merge(Vf, Vj, Vk)``: the inverse of ``select``
  (route ``Vj`` to the non-zero positions of the flag vector ``Vf`` and ``Vk``
  to the zero positions, preserving order — a segmented route)
* ``seg_scan``        — ``Vi <- seg-scan(op, Vj, Vs)``: exclusive scan of
  ``Vj`` restarting at every segment boundary of the descriptor ``Vs``
* ``seg_reduce``      — ``Vi <- seg-reduce(op, Vj, Vs)``: one ``op``-reduction
  per segment of ``Vj`` under descriptor ``Vs``
* ``trap``            — raise :class:`~repro.bvram.machine.BVRAMError`; the
  compiler jumps here when a program's result is undefined (zip of unequal
  lengths, ``get`` of a non-singleton, the error term Omega, ...)

There is deliberately **no general permutation** instruction; Theorem 7.1
shows it is not needed to compile NSC efficiently, and Proposition 2.1 shows
every instruction above needs only oblivious routing on a butterfly.

Cost model: each executed instruction has parallel time 1 and work equal to
the sum of the lengths of its input and output registers.

Every class owns its meaning.  ``OPCODE`` (read through :attr:`opcode`,
which appends the ``op`` of ``arith``/``un_arith``/``seg_*``) is the name a
trace records, and each register op's ``step()`` returns the one
``fn(regs)`` closure that executes it — on the traced reference
(:mod:`repro.bvram.machine`) and in the ``fused`` tier alike.  A closure
that raises has written nothing, so both leave the instruction uncharged.
The four control-flow classes (``goto``, ``goto_if_empty``, ``halt``,
``trap``) have no ``step()``: each loop follows them itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .. import _fastpickle as fastpickle
from .._fastpickle import FastSlotPickle
from . import kernels
from .errors import BVRAMError

#: Version of the instruction set itself.  Part of the compile-cache key
#: salt (:mod:`repro.cache.key`): any change to instruction semantics,
#: fields or the cost model must bump this so artifacts compiled under the
#: old ISA are treated as misses, never executed under the new one.
ISA_VERSION = 1

#: arithmetic operations available to the ``arith`` instruction (the set Sigma)
ARITH_OPS = ("+", "-", "*", "/", "mod", ">>", "min", "max", "eq", "le", "lt")

#: unary arithmetic available to the ``un_arith`` instruction
UN_ARITH_OPS = ("log2", "sqrt")

#: operations available to the segmented scan / reduce instructions
SEG_OPS = ("+", "max")


class Instruction(FastSlotPickle):
    """Base class of BVRAM instructions."""

    __slots__ = ()

    # every concrete class sets ``OPCODE``, its trace name

    @property
    def opcode(self) -> str:
        """The trace name: ``OPCODE``, plus ``:op`` for the op-carrying classes."""
        op = getattr(self, "op", None)
        return self.OPCODE if op is None else f"{self.OPCODE}:{op}"

    def registers_read(self) -> tuple[int, ...]:
        return ()

    def registers_written(self) -> tuple[int, ...]:
        return ()


@dataclass(frozen=True, slots=True)
class Move(Instruction):
    """``V[dst] <- V[src]``."""

    OPCODE = "move"

    dst: int
    src: int

    def registers_read(self) -> tuple[int, ...]:
        return (self.src,)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        # No BVRAM instruction mutates a register's array in place (every
        # kernel allocates its output), so a move can alias instead of
        # copying — a list rebind, not a memcpy per phi move.
        def step(regs, dst=self.dst, src=self.src):
            regs[dst] = regs[src]

        return step


@dataclass(frozen=True, slots=True)
class Arith(Instruction):
    """``V[dst] <- V[a] op V[b]`` elementwise; both operands must have equal length."""

    OPCODE = "arith"

    dst: int
    op: str
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic op {self.op!r}")

    def registers_read(self) -> tuple[int, ...]:
        return (self.a, self.b)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        fn = kernels.ARITH_KERNELS[self.op]  # op already validated by __post_init__

        def step(regs, dst=self.dst, op=self.op, a=self.a, b=self.b, fn=fn):
            va, vb = regs[a], regs[b]
            if va.shape != vb.shape:
                raise BVRAMError(
                    f"arith {op}: operands have different lengths {va.size} and {vb.size}"
                )
            regs[dst] = fn(va, vb)

        return step


@dataclass(frozen=True, slots=True)
class LoadEmpty(Instruction):
    """``V[dst] <- []``."""

    OPCODE = "load_empty"

    dst: int

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        def step(regs, dst=self.dst):
            regs[dst] = np.zeros(0, dtype=np.int64)

        return step


@dataclass(frozen=True, slots=True)
class LoadConst(Instruction):
    """``V[dst] <- [value]``."""

    OPCODE = "load_const"

    dst: int
    value: int

    def __init__(self, dst: int, value: int) -> None:
        # no int64 register holds it (a negative constant is a run-time trap
        # instead, see ``step``).  Checked here, not in a ``__post_init__``,
        # which would be one more call per constant the compiler emits
        if value >= kernels.INT64_LIMIT:
            raise ValueError(f"load_const value {value} does not fit a register (>= 2**63)")
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "value", value)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        if self.value < 0:
            # traps when executed, uncharged — not at plan build, which would
            # refuse programs that never reach it

            def step(regs):
                raise BVRAMError("load_const: BVRAM registers hold natural numbers")

            return step

        def step(regs, dst=self.dst, arr=np.array([self.value], dtype=np.int64)):
            regs[dst] = arr.copy()

        return step


@dataclass(frozen=True, slots=True)
class AppendI(Instruction):
    """``V[dst] <- V[a] @ V[b]``."""

    OPCODE = "append"

    dst: int
    a: int
    b: int

    def registers_read(self) -> tuple[int, ...]:
        return (self.a, self.b)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        def step(regs, dst=self.dst, a=self.a, b=self.b):
            regs[dst] = np.concatenate([regs[a], regs[b]])

        return step


@dataclass(frozen=True, slots=True)
class LengthI(Instruction):
    """``V[dst] <- [length(V[src])]``."""

    OPCODE = "length"

    dst: int
    src: int

    def registers_read(self) -> tuple[int, ...]:
        return (self.src,)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        def step(regs, dst=self.dst, src=self.src):
            regs[dst] = np.array([regs[src].size], dtype=np.int64)

        return step


@dataclass(frozen=True, slots=True)
class EnumerateI(Instruction):
    """``V[dst] <- [0, 1, ..., length(V[src]) - 1]``."""

    OPCODE = "enumerate"

    dst: int
    src: int

    def registers_read(self) -> tuple[int, ...]:
        return (self.src,)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        def step(regs, dst=self.dst, src=self.src):
            regs[dst] = np.arange(regs[src].size, dtype=np.int64)

        return step


@dataclass(frozen=True, slots=True)
class BmRoute(Instruction):
    """``V[dst] <- bm-route(V[data], V[counts], V[bound])``.

    Each element of ``V[data]`` is replicated the corresponding number of
    times from ``V[counts]``; the result must match ``V[bound]`` in length
    (``V[bound], V[counts]`` form a nested sequence).
    """

    OPCODE = "bm_route"

    dst: int
    data: int
    counts: int
    bound: int

    def registers_read(self) -> tuple[int, ...]:
        return (self.data, self.counts, self.bound)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        def step(regs, dst=self.dst, data=self.data, counts=self.counts, bound=self.bound):
            regs[dst] = kernels.bm_route_vec(regs[data], regs[counts], regs[bound])

        return step


@dataclass(frozen=True, slots=True)
class SbmRoute(Instruction):
    """``V[dst] <- sbm-route(V[bound], V[counts], V[data], V[segments])``.

    The sub-sequences of ``V[data]`` (segment lengths in ``V[segments]``) are
    replicated according to ``V[counts]``; ``V[bound], V[counts]`` bound the
    output.  With singleton ``counts``/``segments`` this computes a cartesian
    product (Section 2).
    """

    OPCODE = "sbm_route"

    dst: int
    bound: int
    counts: int
    data: int
    segments: int

    def registers_read(self) -> tuple[int, ...]:
        return (self.bound, self.counts, self.data, self.segments)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        def step(
            regs,
            dst=self.dst,
            bound=self.bound,
            counts=self.counts,
            data=self.data,
            segments=self.segments,
        ):
            regs[dst] = kernels.sbm_route_vec(regs[bound], regs[counts], regs[data], regs[segments])

        return step


@dataclass(frozen=True, slots=True)
class Select(Instruction):
    """``V[dst] <- sigma(V[src])`` — pack the non-zero values of ``V[src]``."""

    OPCODE = "select"

    dst: int
    src: int

    def registers_read(self) -> tuple[int, ...]:
        return (self.src,)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        def step(regs, dst=self.dst, src=self.src):
            v = regs[src]
            regs[dst] = v[v != 0]

        return step


@dataclass(frozen=True, slots=True)
class UnArith(Instruction):
    """``V[dst] <- op(V[src])`` elementwise; ``op`` in {log2, sqrt}."""

    OPCODE = "un_arith"

    dst: int
    op: str
    src: int

    def __post_init__(self) -> None:
        if self.op not in UN_ARITH_OPS:
            raise ValueError(f"unknown unary arithmetic op {self.op!r}")

    def registers_read(self) -> tuple[int, ...]:
        return (self.src,)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        def step(regs, dst=self.dst, op=self.op, src=self.src):
            regs[dst] = kernels.un_arith(op, regs[src])

        return step


@dataclass(frozen=True, slots=True)
class FlagMerge(Instruction):
    """``V[dst] <- merge(V[flags], V[a], V[b])`` — the inverse of ``select``.

    Output position ``i`` takes the next unconsumed element of ``V[a]`` when
    ``V[flags][i]`` is non-zero and of ``V[b]`` otherwise.  Requires
    ``len(a) + len(b) == len(flags)`` and ``len(a) ==`` the number of non-zero
    flags.  Order-preserving and oblivious (a monotone route).
    """

    OPCODE = "flag_merge"

    dst: int
    flags: int
    a: int
    b: int

    def registers_read(self) -> tuple[int, ...]:
        return (self.flags, self.a, self.b)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        def step(regs, dst=self.dst, flags=self.flags, a=self.a, b=self.b):
            regs[dst] = kernels.flag_merge_vec(regs[flags], regs[a], regs[b])

        return step


@dataclass(frozen=True, slots=True)
class SegScan(Instruction):
    """``V[dst] <- seg-scan(op, V[data], V[segments])`` (exclusive, per segment).

    The scan restarts at every segment boundary; the identity (0 for both
    ``+`` and ``max`` on naturals) seeds each segment.  Requires
    ``sum(segments) == len(data)``.
    """

    OPCODE = "seg_scan"

    dst: int
    op: str
    data: int
    segments: int

    def __post_init__(self) -> None:
        if self.op not in SEG_OPS:
            raise ValueError(f"unknown segmented op {self.op!r}")

    def registers_read(self) -> tuple[int, ...]:
        return (self.data, self.segments)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        def step(regs, dst=self.dst, op=self.op, data=self.data, segments=self.segments):
            regs[dst] = kernels.seg_scan_vec(op, regs[data], regs[segments])

        return step


@dataclass(frozen=True, slots=True)
class SegReduce(Instruction):
    """``V[dst] <- seg-reduce(op, V[data], V[segments])``: one result per segment.

    Empty segments reduce to the identity (0).  Requires
    ``sum(segments) == len(data)``.
    """

    OPCODE = "seg_reduce"

    dst: int
    op: str
    data: int
    segments: int

    def __post_init__(self) -> None:
        if self.op not in SEG_OPS:
            raise ValueError(f"unknown segmented op {self.op!r}")

    def registers_read(self) -> tuple[int, ...]:
        return (self.data, self.segments)

    def registers_written(self) -> tuple[int, ...]:
        return (self.dst,)

    def step(self):
        def step(regs, dst=self.dst, op=self.op, data=self.data, segments=self.segments):
            regs[dst] = kernels.seg_reduce_vec(op, regs[data], regs[segments])

        return step


@dataclass(frozen=True, slots=True)
class Trap(Instruction):
    """Raise ``BVRAMError(message)`` — the compiled form of an undefined result."""

    OPCODE = "trap"

    message: str = "undefined BVRAM result"


@dataclass(frozen=True, slots=True)
class Goto(Instruction):
    """Unconditional jump to ``label``."""

    OPCODE = "goto"

    label: str


@dataclass(frozen=True, slots=True)
class GotoIfEmpty(Instruction):
    """Jump to ``label`` iff ``V[src]`` currently holds the empty sequence."""

    OPCODE = "goto_if_empty"

    label: str
    src: int

    def registers_read(self) -> tuple[int, ...]:
        return (self.src,)


@dataclass(frozen=True, slots=True)
class Halt(Instruction):
    """Stop the program."""

    OPCODE = "halt"


#: register-index fields per instruction class — the structural companion to
#: ``registers_read`` / ``registers_written``, used by the compiler's
#: register-renumbering pass.  Control flow (``Goto``, ``Trap``, ``Halt``)
#: carries no register fields and is absent.
REG_FIELDS: dict[type, tuple[str, ...]] = {
    Move: ("dst", "src"),
    Arith: ("dst", "a", "b"),
    LoadEmpty: ("dst",),
    LoadConst: ("dst",),
    AppendI: ("dst", "a", "b"),
    LengthI: ("dst", "src"),
    EnumerateI: ("dst", "src"),
    BmRoute: ("dst", "data", "counts", "bound"),
    SbmRoute: ("dst", "bound", "counts", "data", "segments"),
    Select: ("dst", "src"),
    UnArith: ("dst", "src"),
    FlagMerge: ("dst", "flags", "a", "b"),
    SegScan: ("dst", "data", "segments"),
    SegReduce: ("dst", "data", "segments"),
    GotoIfEmpty: ("src",),
}


@dataclass
class Program:
    """A labelled BVRAM program.

    ``instructions`` is the ordered list of instructions; ``labels`` maps a
    label to an instruction index; ``n_registers`` is the machine's (fixed)
    register count; ``n_inputs``/``n_outputs`` are the r_i / r_o of Section 2.
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    n_registers: int = 8
    n_inputs: int = 1
    n_outputs: int = 1

    def emit(self, instr: Instruction) -> int:
        """Append an instruction, returning its index."""
        self.instructions.append(instr)
        return len(self.instructions) - 1

    def label(self, name: str) -> None:
        """Attach a label to the *next* instruction to be emitted."""
        if name in self.labels:
            raise ValueError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions)

    def validate(self) -> None:
        """Check register indices and jump targets.

        The machine re-validates on every ``run``, which dominates
        small-program execution — so a passing validation is memoised
        against an identity snapshot of the instruction list plus the label
        table and register count; any structural edit re-validates.
        """
        snap = getattr(self, "_validated", None)
        instrs = self.instructions
        # list ``==`` short-circuits on element identity, so an unchanged
        # program is one C-level pointer scan (no Python-level loop)
        if (
            snap is not None
            and snap[1] == self.n_registers
            and snap[2] == self.labels
            and snap[0] == instrs
        ):
            return
        for instr in instrs:
            for reg in (*instr.registers_read(), *instr.registers_written()):
                if not 0 <= reg < self.n_registers:
                    raise ValueError(
                        f"instruction {instr!r} uses register {reg} outside 0..{self.n_registers - 1}"
                    )
            if isinstance(instr, (Goto, GotoIfEmpty)) and instr.label not in self.labels:
                raise ValueError(f"jump to unknown label {instr.label!r}")
        self._validated = (list(instrs), self.n_registers, dict(self.labels))

    def __len__(self) -> int:
        return len(self.instructions)


fastpickle.install(Instruction)
