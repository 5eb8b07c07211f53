"""The ``Backend`` interface and the named-backend registry.

A *backend* owns one way of executing a validated BVRAM program in untraced
mode: it compiles the program into a **plan** (cached on the program object
under its own ``cache_attr``, see :class:`~repro.backends.registry.PlanCache`)
and drives that plan with exact Section 2 accounting.  The contract every
implementation must honour — pinned by ``tests/test_optimize.py``,
``tests/test_backends.py`` and the differential fuzz battery:

* final register contents, ``T'`` and ``W'`` are **bit-identical** to a
  traced run, including on every error path (a raising instruction is not
  charged; ``trap`` is charged before raising; a ``max_steps`` overrun stops
  and charges at exactly the instruction the traced loop stops at);
* plans are derived state: they must never cross a pickle boundary
  (``CompiledProgram._CACHE_ATTRS`` lists every ``cache_attr``) and must be
  rebuildable from the program alone, so a shard worker that receives the
  bare program re-derives the plan of the program's *selected* backend;
* plan caches are fork-safe (their locks live in
  :mod:`repro.backends.registry`); a forked child inherits warm plans and
  may keep using them.

Selection (:func:`resolve_backend`) is by name, in precedence order:
explicit ``backend=`` argument, the program's own ``backend`` attribute
(survives pickling — this is how a shard worker learns the choice), the
``REPRO_BACKEND`` environment variable, then the ``fused`` default.

Every backend drives its plan through the one dispatch loop here,
:func:`run_plan`; backends differ only in how they *build* the plan's
blocks (closure loops vs generated source).
"""

from __future__ import annotations

import os

from ..bvram.errors import BVRAMError

#: plan entry kinds.  The closure table (:mod:`repro.backends.interp`) has
#: one STEP/JUMP/HALT/TRAP entry per instruction; an executable plan groups
#: the STEPs into BLOCKs, so :func:`run_plan` never sees a STEP.
STEP = 0  # plain register op: fn(regs) executes it
JUMP = 1  # control flow: fn(regs) returns the next pc, or -1 to fall through
HALT = 2
TRAP = 3  # payload is the trap message
BLOCK = 4  # straight-line block: fn(regs, lo, hi, partial) -> (time, work)


class Backend:
    """One untraced execution strategy for BVRAM programs."""

    #: registry name (``backend="..."`` selects it)
    name: str = "?"
    #: program attribute holding this backend's cached plan; every value
    #: must be listed in ``CompiledProgram._CACHE_ATTRS``
    cache_attr: str = "?"

    def plan(self, program):
        """Build (or fetch the cached) execution plan for ``program``."""
        raise NotImplementedError

    def execute(self, machine, program, max_steps: int, instrument=None) -> None:
        """Run ``program`` on ``machine``, leaving T/W on the machine.

        Fetches the cached plan entries (seeding whatever per-run state the
        blocks need) and hands them to :func:`run_plan`.  ``instrument``,
        when given, maps the entry list to the one actually dispatched —
        the profiler's hook for wrapping payloads; plain runs pass nothing.
        """
        raise NotImplementedError

    def disassemble(self, program) -> str:
        """Human-readable plan listing / generated source, for debugging."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


_BACKENDS: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    _BACKENDS[backend.name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> Backend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(sorted(_BACKENDS))}"
        ) from None


def resolve_backend(backend=None, program=None) -> Backend:
    """The backend to run with, per the module-docstring precedence order."""
    if isinstance(backend, Backend):
        return backend
    if backend is None:
        backend = (
            getattr(program, "backend", None)
            or os.environ.get("REPRO_BACKEND")
            or "fused"
        )
    return get_backend(backend)


def format_listing(program, group_of=None) -> str:
    """A labelled instruction listing, optionally annotated with block ids.

    ``group_of`` maps an instruction index to the plan-entry index covering
    it (the fused/vector disassemblers pass it to show superinstruction
    boundaries).
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


def run_plan(machine, plan, max_steps: int, lo=None, hi=None) -> None:
    """The untraced dispatch loop: one call per block, exact T/W accounting.

    ``plan`` is a list of ``(kind, payload, extra)`` entries: ``BLOCK``
    carries ``(fn, instruction count)``, ``JUMP`` ``(fn, rw registers)``,
    ``HALT``/``TRAP`` are charged here without a call.  ``lo``/``hi`` are
    the per-register interval bounds generated blocks thread through the
    run; closure blocks ignore them.

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
                    t, w = payload(regs, lo, hi, partial)
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
