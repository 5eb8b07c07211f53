"""The plan entry kinds and the one untraced dispatch loop.

An untraced run executes a validated BVRAM program as a cached **plan**
(:mod:`repro.backends.fused` builds it; the plan is cached on the program
object, see :class:`~repro.backends.registry.PlanCache`) driven by
:func:`run_plan` with exact Section 2 accounting.  The contract — pinned by
``tests/test_optimize.py``, ``tests/test_backends.py`` and the differential
fuzz battery:

* final register contents, ``T'`` and ``W'`` are **bit-identical** to a
  traced run, including on every error path (a raising instruction is not
  charged; ``trap`` is charged before raising; a ``max_steps`` overrun stops
  and charges at exactly the instruction the traced loop stops at);
* plans are derived state: they never cross a pickle boundary
  (``CompiledProgram._CACHE_ATTRS`` lists every cache attribute) and are
  rebuilt from the program alone, so a shard worker that receives the bare
  program derives its own;
* plan caches are fork-safe (their locks live in
  :mod:`repro.backends.registry`); a forked child inherits warm plans and
  may keep using them.
"""

from __future__ import annotations

from ..bvram.errors import BVRAMError

#: plan entry kinds.  The op table (:func:`repro.backends.fused.plan_for`)
#: has one STEP/JUMP/HALT/TRAP entry per instruction, and the traced
#: reference walks it entry by entry; an executable plan groups the STEPs
#: into BLOCKs, so :func:`run_plan` never sees a STEP.
STEP = 0  # plain register op: fn(regs) executes it, fn built by the class's step()
JUMP = 1  # control flow: fn(regs) returns the next pc, or -1 to fall through
HALT = 2
TRAP = 3  # payload is the trap message
BLOCK = 4  # straight-line block: fn(regs, partial) -> (time, work)


def format_listing(program, group_of=None) -> str:
    """A labelled instruction listing, optionally annotated with block ids.

    ``group_of`` maps an instruction index to the plan-entry index covering
    it (:func:`repro.backends.fused.disassemble` passes it to show
    superinstruction boundaries).
    """
    by_index: dict[int, list[str]] = {}
    for lbl, idx in sorted(program.labels.items()):
        by_index.setdefault(idx, []).append(lbl)
    lines = []
    for i, instr in enumerate(program.instructions):
        for lbl in by_index.get(i, ()):
            lines.append(f"{lbl}:")
        entry = "" if group_of is None else f"  [entry {group_of[i]}]"
        lines.append(f"  {i:4d}  {instr!r}{entry}")
    for lbl in by_index.get(len(program.instructions), ()):
        lines.append(f"{lbl}:")
    return "\n".join(lines) + "\n"


def step_budget_error(max_steps: int) -> BVRAMError:
    """The ``max_steps`` overrun trap, worded as the traced loop words it."""
    return BVRAMError(f"exceeded {max_steps} steps (non-terminating program?)")


def run_plan(machine, plan, max_steps: int) -> None:
    """The untraced dispatch loop: one call per block, exact T/W accounting.

    ``plan`` is a list of ``(kind, payload, extra)`` entries: ``BLOCK``
    carries ``(fn, instruction count)``, ``JUMP`` ``(fn, rw registers)``,
    ``HALT``/``TRAP`` are charged here without a call.

    Parity with the traced loop: each instruction is charged 1 time unit
    plus the post-execution lengths of its read/written registers, summed
    per block inside the block function.  A block whose ``j``-th instruction
    raises reports the totals of its first ``j - 1`` through ``partial``
    (the raising instruction is not charged), ``trap`` is charged before
    raising, and a step budget that expires mid-block drives the block's
    per-instruction closures (``fn.steps``) so the run stops and charges at
    exactly the instruction the traced loop stops at.  The totals and the
    exit ``pc`` (one past the last entry fetched, or a taken jump's target)
    are flushed to the machine on every exit path.
    """
    regs = machine.registers
    n = len(plan)
    pc = 0
    steps = 0
    time = 0
    work = 0
    partial = [0, 0]
    try:
        while pc < n:
            if steps >= max_steps:
                raise step_budget_error(max_steps)
            kind, payload, extra = plan[pc]
            pc += 1
            if kind == BLOCK:
                if steps + extra > max_steps:
                    for fn, rw in payload.steps[: max_steps - steps]:
                        fn(regs)
                        time += 1
                        for r in rw:
                            work += regs[r].size
                    raise step_budget_error(max_steps)
                steps += extra
                try:
                    t, w = payload(regs, partial)
                except BaseException:
                    time += partial[0]
                    work += partial[1]
                    raise
                time += t
                work += w
            elif kind == JUMP:
                steps += 1
                target = payload(regs)
                time += 1
                for r in extra:
                    work += regs[r].size
                if target >= 0:
                    pc = target
            elif kind == HALT:
                steps += 1
                time += 1
                break
            else:  # TRAP
                time += 1
                raise BVRAMError(payload)
    finally:
        machine.time = time
        machine.work = work
        machine.exit_pc = pc
