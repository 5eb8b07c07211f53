"""The ``fused`` backend: superinstructions over the closure table.

Maximal straight-line runs of non-jump instructions execute as one *fused*
step function — a single dispatch per block instead of one per instruction —
with the ``T``/``W`` totals accumulated inside the closure.  The plan is
cheap to build (no code generation), which is why this is the default tier.

Block boundaries are forced by control flow only:

* any instruction that is the target of a ``goto`` / ``goto_if_empty``
  starts a new block (execution may enter there mid-stream);
* ``goto`` / ``goto_if_empty`` / ``halt`` / ``trap`` each stay a plan entry
  of their own (they leave the block or the program).

Accounting is **bit-identical** to the traced interpreter (pinned by
``tests/test_optimize.py`` and the ``tests/test_batch.py`` battery): every
instruction is charged 1 time unit plus the post-execution lengths of its
read and written registers, sampled immediately after it executes — a later
instruction in the same block may resize a register, so the work loop cannot
be hoisted out.  When an instruction raises mid-block, the totals of the
instructions before it are reported through a shared ``partial`` cell and
the raising instruction is not charged, matching the traced loop's
charge-after-execute discipline.

The grouping pass (:func:`group_entries`) and the jump re-targeting
(:func:`jump_entry`) are shared with the vector backend, which compiles the
very same blocks into generated NumPy mega-ops instead of closure loops —
both backends therefore agree exactly on plan indices and ``max_steps``
block boundaries.
"""

from __future__ import annotations

from ..bvram import isa
from .base import (
    BLOCK,
    JUMP,
    STEP,
    Backend,
    format_listing,
    register_backend,
    run_plan,
)
from .interp import plan_for
from .registry import PlanCache


def make_block(steps: list[tuple]) -> tuple:
    """Fuse ``(kernel, rw)`` pairs into one step closure.

    The closure takes the block signature of :func:`~.base.run_plan`
    (``lo``/``hi`` are the vector tier's interval bounds, unused here) and
    returns ``(time, work)`` for the whole block; if a kernel raises, the
    totals of the completed prefix are written into ``partial`` before the
    exception propagates.
    """
    k = len(steps)

    def fused(regs, lo, hi, partial, steps=tuple(steps), k=k):
        t = 0
        w = 0
        try:
            for fn, rw in steps:
                fn(regs)
                t += 1
                for r in rw:
                    w += regs[r].size
        except BaseException:
            partial[0] = t
            partial[1] = w
            raise
        return k, w

    # run_plan drives the block per-instruction through this attribute when
    # the step budget would expire mid-block (exact max_steps parity)
    fused.steps = tuple(steps)
    return fused, k


def group_entries(program: isa.Program, base: list[tuple]):
    """Group instruction indices into fused-plan entries.

    Returns ``(groups, entry_target)``: ``groups`` is a list of
    ``(entry kind, covered instruction indices)`` in plan order, and
    ``entry_target`` maps an instruction index that is a jump target to its
    plan-entry index (every jump target is a block boundary by
    construction, so the mapping is total; a label one past the end maps to
    ``len(groups)``, falling off the plan).
    """
    code = program.instructions
    labels = program.labels
    targets = {
        labels[instr.label]
        for instr in code
        if isinstance(instr, (isa.Goto, isa.GotoIfEmpty))
    }
    n = len(base)

    groups: list[tuple[int, list[int]]] = []
    i = 0
    while i < n:
        kind = base[i][0]
        if kind != STEP:
            groups.append((kind, [i]))
            i += 1
            continue
        run = [i]
        j = i + 1
        while j < n and base[j][0] == STEP and j not in targets:
            run.append(j)
            j += 1
        groups.append((BLOCK, run))
        i = j

    start_to_entry = {idxs[0]: gi for gi, (_, idxs) in enumerate(groups)}

    def entry_target(instr_index: int) -> int:
        if instr_index >= n:  # label past the last instruction: fall off the end
            return len(groups)
        return start_to_entry[instr_index]

    return groups, entry_target


def jump_entry(program: isa.Program, base: list[tuple], first: int, entry_target) -> tuple:
    """The re-targeted ``(JUMP, fn, rw)`` plan entry for instruction ``first``."""
    instr = program.instructions[first]
    target = entry_target(program.labels[instr.label])
    rw = base[first][2]
    if isinstance(instr, isa.Goto):

        def jump(regs, target=target):
            return target

    else:  # GotoIfEmpty
        src = instr.src

        def jump(regs, target=target, src=src):
            return target if regs[src].size == 0 else -1

    return (JUMP, jump, rw)


def build_fused_plan(program: isa.Program) -> list[tuple]:
    """Compile ``program`` into ``(kind, payload, extra)`` fused-plan entries.

    ``BLOCK`` entries carry ``(fused closure, instruction count)``; jump
    entries are re-targeted from instruction indices to fused-plan indices.
    Entry kinds other than ``BLOCK`` keep the per-instruction plan's
    payload/rw layout.
    """
    base = plan_for(program)
    groups, entry_target = group_entries(program, base)
    plan: list[tuple] = []
    for kind, idxs in groups:
        first = idxs[0]
        if kind == BLOCK:
            steps = [(base[j][1], base[j][2]) for j in idxs]
            plan.append((BLOCK, *make_block(steps)))
        elif kind == JUMP:
            plan.append(jump_entry(program, base, first, entry_target))
        else:  # HALT / TRAP: keep the per-instruction payload
            plan.append((kind, base[first][1], base[first][2]))
    return plan


_CACHE = PlanCache("_fused_plan", build_fused_plan)


class FusedBackend(Backend):
    """Superinstruction dispatch: one closure call per straight-line block."""

    name = "fused"
    cache_attr = _CACHE.attr

    def plan(self, program):
        return _CACHE.lookup(program)

    def execute(self, machine, program, max_steps: int, instrument=None) -> None:
        plan = _CACHE.lookup(program)
        if instrument is not None:
            plan = instrument(plan)
        run_plan(machine, plan, max_steps)

    def disassemble(self, program) -> str:
        base = plan_for(program)
        groups, _ = group_entries(program, base)
        group_of = {}
        for gi, (_, idxs) in enumerate(groups):
            for j in idxs:
                group_of[j] = gi
        header = "".join(
            f"# entry {gi}: {'block' if kind == BLOCK else 'control'} "
            f"[{idxs[0]}..{idxs[-1]}]\n"
            for gi, (kind, idxs) in enumerate(groups)
        )
        return header + format_listing(program, group_of)


FUSED = register_backend(FusedBackend())
