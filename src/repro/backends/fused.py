"""The ``fused`` tier, the one untraced engine: superinstructions over the op table.

The op table (:func:`plan_for`) is one ``(kind, payload, rw)`` entry per
instruction: a register op's payload is the closure its class's ``step()``
builds (:mod:`repro.bvram.isa`), and only the four control-flow classes are
spelled here.  The traced reference (:mod:`repro.bvram.machine`) walks the
same table one entry at a time; this tier groups it.

Maximal straight-line runs of non-jump instructions execute as one *fused*
step function — a single dispatch per block instead of one per instruction —
with the ``T``/``W`` totals accumulated inside the closure.  The plan is
cheap to build (no code generation): 1-5 ms on a 1-2k-instruction program.
An untraced ``BVRAM.run`` calls :func:`execute` directly; there is no tier
to choose.

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
charge-after-execute discipline.  A step budget that expires mid-block
drives the table's closures one by one, so ``max_steps`` stops at the
instruction the traced loop stops at.  The profiler
(:mod:`repro.obs.profile`) reads the same grouping (:func:`group_entries`)
to attribute a run to plan entries.
"""

from __future__ import annotations

from ..bvram import isa
from .base import BLOCK, HALT, JUMP, STEP, TRAP, format_listing, run_plan
from .registry import PlanCache


def _jump(instr: isa.Instruction, target: int):
    """The closure of a ``goto``/``goto_if_empty``: the next pc, or -1 to fall through."""
    if isinstance(instr, isa.Goto):

        def jump(regs, target=target):
            return target

    else:  # GotoIfEmpty

        def jump(regs, target=target, src=instr.src):
            return target if regs[src].size == 0 else -1

    return jump


def build_plan(program: isa.Program) -> list[tuple]:
    """The op table: ``(kind, payload, rw)`` tuples, one per instruction.

    ``rw`` is the concatenation of the instruction's read and written
    register indices — exactly the registers the traced loop's ``_charge``
    sums over — so blocks can account work without re-deriving them every
    step.  No :class:`~repro.bvram.machine.TraceEntry` objects are
    allocated, and a closure that raises leaves its instruction uncharged.
    """
    labels = program.labels
    plan: list[tuple] = []
    for instr in program.instructions:
        rw = instr.registers_read() + instr.registers_written()
        if isinstance(instr, (isa.Goto, isa.GotoIfEmpty)):
            plan.append((JUMP, _jump(instr, labels[instr.label]), rw))
        elif isinstance(instr, isa.Halt):
            plan.append((HALT, None, rw))
        elif isinstance(instr, isa.Trap):
            plan.append((TRAP, instr.message, rw))
        else:
            plan.append((STEP, instr.step(), rw))
    return plan


_TABLE_CACHE = PlanCache("_fast_plan", build_plan)


def plan_for(program: isa.Program) -> list[tuple]:
    """Build (or fetch the cached) op table for ``program``."""
    return _TABLE_CACHE.lookup(program)


def make_block(steps: list[tuple]) -> tuple:
    """Fuse ``(kernel, rw)`` pairs into one step closure.

    The closure takes the block signature of :func:`~.base.run_plan` and
    returns ``(time, work)`` for the whole block; if a kernel raises, the
    totals of the completed prefix are written into ``partial`` before the
    exception propagates.
    """
    k = len(steps)

    def fused(regs, partial, steps=tuple(steps), k=k):
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


def build_fused_plan(program: isa.Program) -> list[tuple]:
    """Compile ``program`` into ``(kind, payload, extra)`` fused-plan entries.

    ``BLOCK`` entries carry ``(fused closure, instruction count)``; jump
    entries are re-targeted from instruction indices to fused-plan indices.
    Entry kinds other than ``BLOCK`` keep the op table's payload/rw layout.
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
            instr = program.instructions[first]
            target = entry_target(program.labels[instr.label])
            plan.append((JUMP, _jump(instr, target), base[first][2]))
        else:  # HALT / TRAP: keep the op table's payload
            plan.append((kind, base[first][1], base[first][2]))
    return plan


_CACHE = PlanCache("_fused_plan", build_fused_plan)


def plan(program: isa.Program) -> list[tuple]:
    """Build (or fetch the cached) fused plan for ``program``."""
    return _CACHE.lookup(program)


def execute(machine, program: isa.Program, max_steps: int, instrument=None) -> None:
    """Run ``program`` on ``machine`` untraced, leaving T/W on the machine.

    ``instrument``, when given, maps the plan to the one actually
    dispatched — the profiler's hook for wrapping payloads; plain runs pass
    nothing.
    """
    entries = _CACHE.lookup(program)
    if instrument is not None:
        entries = instrument(entries)
    run_plan(machine, entries, max_steps)


def disassemble(program: isa.Program) -> str:
    """The instruction listing annotated with its plan-entry boundaries."""
    groups, _ = group_entries(program, plan_for(program))
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
