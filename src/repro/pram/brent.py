"""CREW PRAM with scan primitives: Brent scheduling (Proposition 3.2).

Proposition 3.2: *any NSC function of time complexity T and work complexity W
can be simulated on a CREW PRAM with scan primitives using p processors with
asymptotic complexity O(T + W/p).*

The proof flattens the NSC function onto an extended BVRAM (unbounded
registers) and then work-schedules each vector instruction across the p
processors.  We reproduce the scheduling level: given the instruction trace
of a (B)VRAM execution — or, coarser, just the (T, W) pair of an NSC
evaluation — compute the number of PRAM cycles under Brent's principle: an
instruction of work ``w`` takes ``ceil(w / p) + c_scan`` cycles, where
``c_scan`` is the constant number of scan/prefix operations needed to
allocate the instruction's elements to processors (the "+ scan primitives"
part of the proposition).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Iterable, Sequence

from ..bvram.machine import TraceEntry

#: number of constant-time scan / bookkeeping operations charged per
#: vector instruction when distributing its elements over the processors
SCAN_OVERHEAD = 2


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a trace on p processors."""

    processors: int
    cycles: int
    time: int
    work: int


def schedule_trace(trace: Sequence[TraceEntry], p: int) -> ScheduleResult:
    """Brent-schedule a per-instruction trace on ``p`` processors."""
    if p < 1:
        raise ValueError("need at least one processor")
    cycles = 0
    work = 0
    for entry in trace:
        cycles += ceil(entry.work / p) + SCAN_OVERHEAD if entry.work else 1 + SCAN_OVERHEAD
        work += entry.work
    return ScheduleResult(processors=p, cycles=cycles, time=len(trace), work=work)


def brent_bound(time: int, work: int, p: int) -> int:
    """The O(T + W/p) bound itself (used as the reference curve in E2)."""
    if p < 1:
        raise ValueError("need at least one processor")
    return time + ceil(work / p)


def schedule_outcome(time: int, work: int, p: int) -> ScheduleResult:
    """Schedule an NSC evaluation known only by its (T, W) pair.

    Proposition 3.2 guarantees a per-step decomposition exists with total work
    W spread over T parallel steps; lacking the exact per-step breakdown we
    model the least favourable balanced split (each of the T steps carries
    W/T work), which still exhibits the O(T + W/p) behaviour the experiment
    checks for.
    """
    if p < 1:
        raise ValueError("need at least one processor")
    if time <= 0:
        return ScheduleResult(p, 0, 0, 0)
    per_step = work / time
    cycles = 0
    for _ in range(time):
        cycles += ceil(per_step / p) + SCAN_OVERHEAD
    return ScheduleResult(processors=p, cycles=cycles, time=time, work=work)


def speedup_curve(time: int, work: int, processors: Iterable[int]) -> list[tuple[int, int]]:
    """(p, cycles) pairs for a range of processor counts (the E2 series)."""
    return [(p, schedule_outcome(time, work, p).cycles) for p in processors]
