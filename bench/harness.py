"""Best-block timing, exact call counts and the clean environment.

A timing metric is a list of :class:`Part` s.  One **block** is one call of a
part's function: a fixed number of operations set by the workload, never a
duration.  :func:`run_rounds` interleaves the blocks of all metrics
round-robin, so every metric samples the whole run; the gated value is the sum
over parts of each part's best block.  The median and interquartile range over
rounds describe the host and are reported as per-layer metrics.
"""

from __future__ import annotations

import cProfile
import gc
import glob
import inspect
import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: every knob of the program under test that travels by environment
SCRUBBED = ("REPRO_BACKEND", "REPRO_CACHE_DIR", "REPRO_CACHE_MAX_MB", "REPRO_SHARD_TRANSPORT")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def clean_env() -> dict:
    """The environment every benchmark process runs in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Phase:
    """Operations attempted and failed in one phase of a run."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, ops: int, failed: int = 0, error: Optional[str] = None) -> None:
        self.attempted += ops
        self.failed += failed
        if error and len(self.errors) < 5:
            self.errors.append(error)


@dataclass
class Part:
    """One separately timed piece of a metric's operation."""

    name: str
    fn: Callable  #: sync or async; performs ``ops`` operations, returns their outputs
    ops: int
    check: Callable[[object], int]  #: outputs -> number of wrong ones (run untimed)
    divide: int = 1  #: repeats of the operation inside one block
    value_of: Optional[Callable[[float, object], float]] = None  #: (block seconds, outputs) -> seconds
    samples: list = field(default_factory=list)


@dataclass
class Timing:
    """One timing metric: ``_ms``/``_s`` gate on the minimum, ``_rps`` on the maximum."""

    name: str
    unit: str  #: "ms", "s" or "1/s"
    parts: list
    requests: int = 0  #: for "1/s": requests one operation serves

    def _convert(self, seconds: float) -> float:
        if self.unit == "1/s":
            return self.requests / seconds
        return seconds * 1e3 if self.unit == "ms" else seconds

    def best(self) -> float:
        return self._convert(sum(min(p.samples) for p in self.parts))

    def per_round(self) -> list[float]:
        rounds = min(len(p.samples) for p in self.parts)
        return [self._convert(sum(p.samples[r] for p in self.parts)) for r in range(rounds)]


def quartiles(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range) of a sample."""
    if len(values) < 2:
        return (values[0] if values else 0.0, 0.0)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1


async def call(fn: Callable):
    out = fn()
    return await out if inspect.isawaitable(out) else out


async def run_block(part: Part, phase: Phase, check: bool, keep: bool = True) -> None:
    """Time one block with the collector off; check its outputs outside the clock."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = await call(part.fn)
        dt = time.perf_counter() - t0
    except Exception as e:  # noqa: BLE001 - a failed operation is a result, not a crash
        phase.record(part.ops, part.ops, f"{part.name}: {type(e).__name__}: {e}")
        return
    finally:
        gc.enable()
    if keep:
        seconds = part.value_of(dt, out) if part.value_of else dt
        part.samples.append(seconds / part.divide)
    phase.record(part.ops, part.check(out) if check else 0)


SETTLE_SAMPLES, SETTLE_WITHIN = 3, 1.05
EXTEND = 1.5  #: the window may grow to this multiple of ``--seconds`` for unsettled parts


def settled(part: Part) -> bool:
    """Has the best level been seen more than once?  (3 smallest blocks within 5 %.)

    A lone lucky block, or a run that touched the host's fast phase once, fails
    this; a part that is steadily fast (or steadily slow) passes it.
    """
    low = sorted(part.samples)[:SETTLE_SAMPLES]
    return len(low) == SETTLE_SAMPLES and low[-1] <= low[0] * SETTLE_WITHIN


async def run_rounds(
    timings: list, phases: dict, seconds: float, min_rounds: int, max_rounds: int,
    spaced: Optional[Part] = None, spaced_count: int = 0,
) -> int:
    """Interleave every part of every metric until ``seconds`` have passed.

    After that, only parts whose minimum has not :func:`settled` keep running,
    for at most ``EXTEND`` times the window: a quiet host finishes on time and a
    noisy one gets more blocks where they are needed.  ``spaced`` is a part too
    long to run every round (a whole set-up in a fresh process): it runs
    ``spaced_count`` times, spread evenly over the window, so that it too samples
    the whole run.  Outputs are checked against the oracles on the first round
    and once more in an untimed pass after the last, so state corrupted along
    the way shows.  Returns the number of full rounds.
    """
    order = [(part, phases[t.name]) for t in timings for part in t.parts]
    start = time.perf_counter()
    rounds = 0
    while rounds < max_rounds and (rounds < min_rounds or time.perf_counter() - start < seconds):
        if spaced and len(spaced.samples) < spaced_count and (
            time.perf_counter() - start >= len(spaced.samples) * seconds / spaced_count
        ):
            await run_block(spaced, phases[spaced.name], check=True)
        # start each round one part further on, so no part always follows the same
        # neighbour or always lands on the same beat of a periodic disturbance
        for part, phase in order[rounds % len(order):] + order[: rounds % len(order)]:
            await run_block(part, phase, check=rounds == 0)
        rounds += 1
    while time.perf_counter() - start < seconds * EXTEND:
        unsettled = [(part, phase) for part, phase in order if part.samples and not settled(part)]
        if not unsettled:
            break
        for part, phase in unsettled:
            await run_block(part, phase, check=False)
    for part, phase in order:
        await run_block(part, phase, check=True, keep=False)
    return rounds


def count_calls(fn: Callable):
    """(Python-level calls made by ``fn()``, its result): ``call`` + ``c_call`` events."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        out = fn()
    finally:
        profiler.disable()
    return sum(entry.callcount for entry in profiler.getstats()), out


def host_facts() -> str:
    """What a reader needs to compare two runs: cores, interpreter, NumPy, numba or not."""
    import importlib.util
    import platform

    import numpy

    numba = "present" if importlib.util.find_spec("numba") else "absent"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} numba={numba}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def shm_segments(pids) -> list[str]:
    """Shared-memory segments of the program still on this host that ``pids`` created."""
    return sorted(
        os.path.basename(p) for pid in pids for p in glob.glob(f"/dev/shm/repro-shard-{pid}-*")
    )


def child_pids() -> list[int]:
    """The processes whose parent is this one, zombies included (read from Linux's /proc)."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                    stat = fh.read()
            except OSError:  # gone between the listing and the read
                continue
            if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
                out.append(int(entry))
    return out


def reap_children() -> None:
    """Leave no process behind: the last thing a benchmark process does.

    multiprocessing's resource tracker, started with the first shared-memory
    segment, is built to outlive its parent; closing its pipe ends it and it is
    waited for here.  Whatever else is still a child by now is killed and waited for.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # noqa: BLE001 - no tracker, or no such hook: the sweep below covers it
        pass
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
