"""Per-block execution profiling with exact ``T'``/``W'`` attribution.

The backends report only run *totals*; this module attributes them.  It
owns no dispatch loop: a profiled run executes the program's **normal
cached plan** (the very closures/generated blocks a plain run dispatches)
through the backends' one loop, :func:`repro.backends.base.run_plan`, with
every callable payload — block, jump, and the per-step closures behind a
block's ``.steps`` — wrapped to record, per plan entry: hit count, wall
time, and the exact ``(t, w)`` the payload hands the loop (returned, left in
``partial`` when a block raises mid-stream, or charged step by step in the
``max_steps`` mid-block fallback).  The one charge the loop makes without a
call, the final ``halt``/``trap`` unit, is attributed from the exit ``pc``
the loop records.  Nothing here depends on which backend built the plan, so
every registered tier is profilable, and the per-entry sums equal the
machine totals on every exit path (``tests/test_obs.py`` pins it over the
differential battery).

Profiling is opt-in per run: plain runs pass no ``instrument`` hook and pay
nothing, and the profiler's own derived state — the block grouping and the
listing line map — is cached on the program under ``_profile_meta`` exactly
like the execution plans (:class:`~repro.backends.registry.PlanCache`;
listed in ``CompiledProgram._CACHE_ATTRS`` so it never crosses a pickle
boundary).

Front door::

    report = prog.profile([5, 3, 8, 1])      # CompiledProgram.profile
    print(report.table())                    # sorted hot-block table
    report.blocks[0].source_line             # 1-based line in report.listing

``report.listing`` is the labelled instruction listing; each
:class:`BlockStat.source_line` is the 1-based line of the entry's first
instruction in it, so the hot-block table links straight back to the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from ..backends.base import BLOCK, HALT, JUMP, TRAP, format_listing, resolve_backend
from ..backends.fused import group_entries
from ..backends.interp import plan_for
from ..backends.registry import PlanCache
from ..bvram.errors import BVRAMError
from ..bvram.machine import BVRAM

_KIND_NAMES = {JUMP: "jump", HALT: "halt", TRAP: "trap", BLOCK: "block"}


def listing_line_numbers(program) -> dict[int, int]:
    """Instruction index -> 1-based line in :func:`format_listing` output.

    Mirrors the listing layout exactly: label lines precede the instruction
    they mark, so an instruction's line shifts down by the labels above it.
    """
    label_count: dict[int, int] = {}
    for idx in program.labels.values():
        label_count[idx] = label_count.get(idx, 0) + 1
    line = 0
    line_of: dict[int, int] = {}
    for i in range(len(program.instructions)):
        line += label_count.get(i, 0) + 1
        line_of[i] = line
    return line_of


def _build_meta(program) -> tuple:
    """``(block grouping, listing line map)`` — the profiler's derived state."""
    groups, _ = group_entries(program, plan_for(program))
    return groups, listing_line_numbers(program)


_META_CACHE = PlanCache("_profile_meta", _build_meta)


def meta_for(program) -> tuple:
    """Build (or fetch the cached) profiling metadata for ``program``."""
    return _META_CACHE.lookup(program)


@dataclass
class BlockStat:
    """One plan entry's attribution: hits, wall time and exact T'/W'."""

    entry: int  #: plan-entry index (matches the fused/vector disassembly)
    kind: str  #: "block" / "jump" / "halt" / "trap"
    first: int  #: first covered instruction index
    last: int  #: last covered instruction index
    hits: int = 0
    time: int = 0  #: exact T' charged to this entry
    work: int = 0  #: exact W' charged to this entry
    wall_s: float = 0.0
    source_line: int = 0  #: 1-based line of ``first`` in the report's listing
    code: str = ""  #: repr of the first covered instruction (truncated)


@dataclass
class ProfileReport:
    """A profiled run: per-entry stats plus the totals they sum to.

    ``time``/``work`` are the machine's flushed totals; ``sum(b.time)`` and
    ``sum(b.work)`` over ``blocks`` equal them bit-identically (checked by
    :meth:`verify_totals`).  ``error`` carries the :class:`BVRAMError`
    message when the run trapped (the stats then cover the executed prefix,
    still summing exactly to the totals).
    """

    backend: str
    blocks: list[BlockStat]
    time: int
    work: int
    wall_s: float
    listing: str
    registers: list = field(default_factory=list)
    error: Optional[str] = None
    result: Optional[object] = None

    def verify_totals(self) -> bool:
        """True iff the per-entry sums reproduce the machine totals exactly."""
        return (
            sum(b.time for b in self.blocks) == self.time
            and sum(b.work for b in self.blocks) == self.work
        )

    def hot_blocks(self, limit: Optional[int] = None, key: str = "wall_s") -> list[BlockStat]:
        """Executed entries sorted hottest-first by ``key`` (wall_s/time/work/hits)."""
        rows = sorted(
            (b for b in self.blocks if b.hits),
            key=lambda b: getattr(b, key),
            reverse=True,
        )
        return rows if limit is None else rows[:limit]

    def table(self, limit: Optional[int] = 10, key: str = "wall_s") -> str:
        """The sorted hot-block table, one row per executed plan entry."""
        total_wall = sum(b.wall_s for b in self.blocks) or 1.0
        lines = [
            f"backend={self.backend}  T'={self.time}  W'={self.work}  "
            f"wall={self.wall_s * 1e3:.2f}ms"
            + (f"  ERROR: {self.error}" if self.error else ""),
            f"{'entry':>5} {'kind':<5} {'instrs':>9} {'hits':>7} {'T-prime':>9} "
            f"{'W-prime':>11} {'wall_ms':>9} {'wall%':>6} {'line':>5}  code",
        ]
        for b in self.hot_blocks(limit, key):
            span = f"{b.first}..{b.last}" if b.last != b.first else f"{b.first}"
            lines.append(
                f"{b.entry:>5} {b.kind:<5} {span:>9} {b.hits:>7} {b.time:>9} "
                f"{b.work:>11} {b.wall_s * 1e3:>9.3f} "
                f"{100 * b.wall_s / total_wall:>5.1f}% {b.source_line:>5}  {b.code}"
            )
        return "\n".join(lines)


def _code_snippet(instr, width: int = 48) -> str:
    text = repr(instr)
    return text if len(text) <= width else text[: width - 3] + "..."


class _Attribution:
    """Per-entry accumulators plus the payload wrappers that fill them."""

    def __init__(self, n_entries: int) -> None:
        self.hits = [0] * n_entries
        self.time = [0] * n_entries
        self.work = [0] * n_entries
        self.wall = [0.0] * n_entries
        self.entries: list[tuple] = []
        #: where the last payload to complete sent control; the loop fetched
        #: one more entry after that iff its exit pc is one past this
        self.next_pc = 0

    def instrument(self, entries: list[tuple]) -> list[tuple]:
        """The ``Backend.execute`` hook: the plan with every payload wrapped."""
        self.entries = entries
        wrapped = []
        for ei, (kind, payload, extra) in enumerate(entries):
            if kind == BLOCK:
                payload = self._block(ei, payload)
            elif kind == JUMP:
                payload = self._jump(ei, payload, extra)
            wrapped.append((kind, payload, extra))
        return wrapped

    def _block(self, ei: int, fn):
        hits, time, work, wall = self.hits, self.time, self.work, self.wall

        def block(regs, lo, hi, partial):
            hits[ei] += 1
            t0 = perf_counter()
            try:
                t, w = fn(regs, lo, hi, partial)
            except BaseException:
                t, w = partial
                raise
            finally:
                wall[ei] += perf_counter() - t0
                time[ei] += t
                work[ei] += w
            self.next_pc = ei + 1
            return t, w

        def step(kernel, rw, first):
            # the mid-block budget fallback: the loop calls these instead of
            # ``block`` and charges each completed one 1 + its rw sizes
            def run(regs):
                if first:  # the block is hit once, however many steps run
                    hits[ei] += 1
                t0 = perf_counter()
                try:
                    kernel(regs)
                finally:
                    wall[ei] += perf_counter() - t0
                time[ei] += 1
                for r in rw:
                    work[ei] += regs[r].size

            return run, rw

        block.steps = tuple(
            step(kernel, rw, j == 0) for j, (kernel, rw) in enumerate(fn.steps)
        )
        return block

    def _jump(self, ei: int, fn, rw):
        hits, time, work, wall = self.hits, self.time, self.work, self.wall

        def jump(regs):
            hits[ei] += 1
            t0 = perf_counter()
            target = fn(regs)
            time[ei] += 1
            for r in rw:
                work[ei] += regs[r].size
            wall[ei] += perf_counter() - t0
            self.next_pc = target if target >= 0 else ei + 1
            return target

        return jump

    def charge_exit(self, exit_pc: int) -> None:
        """Attribute the ``halt``/``trap`` unit the loop charged without a call."""
        ei = self.next_pc
        if exit_pc == ei + 1 and self.entries[ei][0] in (HALT, TRAP):
            self.hits[ei] += 1
            self.time[ei] += 1


def profile_run(program, inputs, max_steps: int = 10_000_000, backend=None) -> ProfileReport:
    """Profile one run of ``program`` on a pre-marshalled input-register image.

    Selects the backend like an untraced ``run()`` (explicit argument, then
    the program's pin, ``REPRO_BACKEND``, the ``fused`` default) and runs
    its normal cached plan with the attributing wrappers in place.  A
    trapping run returns a report with ``error`` set and exact prefix totals
    instead of raising; non-BVRAM exceptions propagate.
    """
    engine = resolve_backend(backend, program=program)
    program.validate()
    machine = BVRAM(program.n_registers)
    if len(inputs) != program.n_inputs:
        raise BVRAMError(
            f"program expects {program.n_inputs} inputs, got {len(inputs)}"
        )
    for i, values in enumerate(inputs):
        machine.load(i, values)

    engine.plan(program)  # built (and its errors raised) outside the timed run
    groups, line_of = meta_for(program)
    acc = _Attribution(len(groups))
    error: Optional[str] = None
    t_run = perf_counter()
    try:
        engine.execute(machine, program, max_steps, instrument=acc.instrument)
    except BVRAMError as e:
        error = str(e)
    wall_total = perf_counter() - t_run
    acc.charge_exit(machine.exit_pc)

    code = program.instructions
    blocks = [
        BlockStat(
            entry=ei,
            kind=_KIND_NAMES[kind],
            first=idxs[0],
            last=idxs[-1],
            hits=acc.hits[ei],
            time=acc.time[ei],
            work=acc.work[ei],
            wall_s=acc.wall[ei],
            source_line=line_of[idxs[0]],
            code=_code_snippet(code[idxs[0]]),
        )
        for ei, (kind, idxs) in enumerate(groups)
    ]
    return ProfileReport(
        backend=engine.name,
        blocks=blocks,
        time=machine.time,
        work=machine.work,
        wall_s=wall_total,
        listing=format_listing(program),
        registers=[np.asarray(r).copy() for r in machine.registers],
        error=error,
    )
