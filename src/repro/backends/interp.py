"""The per-op closure table: one Python closure per instruction.

Not an execution tier of its own — :func:`plan_for` compiles a program into
``(kind, payload, rw)`` entries, one per instruction, that the ``fused``
backend groups into blocks and that the shared dispatch loop drives one by
one when a step budget expires mid-block (both tiers, so ``max_steps``
stops at the identical instruction).  No
:class:`~repro.bvram.machine.TraceEntry` objects are allocated, and a
closure that raises leaves its instruction uncharged, as in the traced loop.
"""

from __future__ import annotations

import numpy as np

from ..bvram import isa
from ..bvram.errors import BVRAMError
from . import kernels
from .base import HALT, JUMP, STEP, TRAP
from .registry import PlanCache


def build_plan(program: isa.Program) -> list[tuple]:
    """Compile a program into ``(kind, payload, rw)`` tuples, one per instruction.

    ``rw`` is the concatenation of the instruction's read and written
    register indices — exactly the registers the traced loop's ``_charge``
    sums over — so blocks can account work without re-deriving them every
    step.
    """
    labels = program.labels
    plan: list[tuple] = []
    for instr in program.instructions:
        rw = instr.registers_read() + instr.registers_written()
        if isinstance(instr, isa.Arith):
            dst, op, a, b = instr.dst, instr.op, instr.a, instr.b
            fn = kernels.ARITH_KERNELS[op]  # op already validated by Arith.__post_init__

            def step(regs, dst=dst, op=op, a=a, b=b, fn=fn):
                va, vb = regs[a], regs[b]
                if va.shape != vb.shape:
                    raise BVRAMError(
                        f"arith {op}: operands have different lengths {va.size} and {vb.size}"
                    )
                regs[dst] = fn(va, vb)

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.Move):
            dst, src = instr.dst, instr.src

            # No BVRAM instruction mutates a register's array in place (every
            # kernel allocates its output), so the untraced move can alias
            # instead of copying — a list rebind, not a memcpy per phi move.
            def step(regs, dst=dst, src=src):
                regs[dst] = regs[src]

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.Select):
            dst, src = instr.dst, instr.src

            def step(regs, dst=dst, src=src):
                v = regs[src]
                regs[dst] = v[v != 0]

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.FlagMerge):
            dst, flags, a, b = instr.dst, instr.flags, instr.a, instr.b

            def step(regs, dst=dst, flags=flags, a=a, b=b):
                regs[dst] = kernels.flag_merge_vec(regs[flags], regs[a], regs[b])

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.AppendI):
            dst, a, b = instr.dst, instr.a, instr.b

            def step(regs, dst=dst, a=a, b=b):
                regs[dst] = np.concatenate([regs[a], regs[b]])

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.UnArith):
            dst, op, src = instr.dst, instr.op, instr.src

            def step(regs, dst=dst, op=op, src=src):
                regs[dst] = kernels.un_arith(op, regs[src])

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.LengthI):
            dst, src = instr.dst, instr.src

            def step(regs, dst=dst, src=src):
                regs[dst] = np.array([regs[src].size], dtype=np.int64)

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.EnumerateI):
            dst, src = instr.dst, instr.src

            def step(regs, dst=dst, src=src):
                regs[dst] = np.arange(regs[src].size, dtype=np.int64)

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.LoadEmpty):
            dst = instr.dst

            def step(regs, dst=dst):
                regs[dst] = np.zeros(0, dtype=np.int64)

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.LoadConst):
            if instr.value < 0:
                # traps when executed, uncharged, as in the traced loop — not
                # at plan build, which would refuse programs that never reach it

                def step(regs):
                    raise BVRAMError("load_const: BVRAM registers hold natural numbers")

            else:
                dst, arr = instr.dst, np.array([instr.value], dtype=np.int64)

                def step(regs, dst=dst, arr=arr):
                    regs[dst] = arr.copy()

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.BmRoute):
            dst, data, counts, bound = instr.dst, instr.data, instr.counts, instr.bound

            def step(regs, dst=dst, data=data, counts=counts, bound=bound):
                regs[dst] = kernels.bm_route_vec(regs[data], regs[counts], regs[bound])

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.SbmRoute):
            dst, bound, counts, data, segments = (
                instr.dst,
                instr.bound,
                instr.counts,
                instr.data,
                instr.segments,
            )

            def step(regs, dst=dst, bound=bound, counts=counts, data=data, segments=segments):
                regs[dst] = kernels.sbm_route_vec(
                    regs[bound], regs[counts], regs[data], regs[segments]
                )

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.SegScan):
            dst, op, data, segments = instr.dst, instr.op, instr.data, instr.segments

            def step(regs, dst=dst, op=op, data=data, segments=segments):
                regs[dst] = kernels.seg_scan_vec(op, regs[data], regs[segments])

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.SegReduce):
            dst, op, data, segments = instr.dst, instr.op, instr.data, instr.segments

            def step(regs, dst=dst, op=op, data=data, segments=segments):
                regs[dst] = kernels.seg_reduce_vec(op, regs[data], regs[segments])

            plan.append((STEP, step, rw))
        elif isinstance(instr, isa.Goto):
            target = labels[instr.label]

            def step(regs, target=target):
                return target

            plan.append((JUMP, step, rw))
        elif isinstance(instr, isa.GotoIfEmpty):
            target, src = labels[instr.label], instr.src

            def step(regs, target=target, src=src):
                return target if regs[src].size == 0 else -1

            plan.append((JUMP, step, rw))
        elif isinstance(instr, isa.Halt):
            plan.append((HALT, None, rw))
        elif isinstance(instr, isa.Trap):
            plan.append((TRAP, instr.message, rw))
        else:
            raise BVRAMError(f"unknown instruction {instr!r}")
    return plan


_CACHE = PlanCache("_fast_plan", build_plan)


def plan_for(program: isa.Program) -> list[tuple]:
    """Build (or fetch the cached) per-instruction plan for ``program``."""
    return _CACHE.lookup(program)
