"""The benchmark's one command.

    python3 bench/run.py --workload <name> --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric and writes ``bench/out/<workload>.trace.json``; the last line of
standard output is the JSON result.  The command scrubs the environment and
re-executes itself as the measuring process, which times set-up in fresh child
processes between its rounds; see bench/README.md for the metric dictionary.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

if not __package__:  # run as a script: import ``bench`` as a package from the checkout root
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    __package__ = "bench"

from . import harness  # noqa: E402

SETUP_BUDGET_S = 4.0  #: of the window goes to timing set-up in fresh processes: 2 to 6 of them
MIN_ROUNDS, MAX_ROUNDS = 10, 100
CHILD_TIMEOUT_S = 60
T0_VAR = "BENCH_T0"  #: CLOCK_MONOTONIC at launch, so set-up time includes interpreter start


def spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, two rounds (contract test)")
    ap.add_argument("--role", choices=("launch", "setup", "measure"), default="launch")
    return ap.parse_args(argv)


# -- processes -------------------------------------------------------------------


def command(argv, role):
    """(argv, env) of one benchmark process: clean environment, launch time recorded."""
    env = harness.clean_env()
    env[T0_VAR] = repr(time.monotonic())
    return [sys.executable, os.path.abspath(__file__), *argv, "--role", role], env


def launch(argv) -> int:
    """Become the measuring process, in the clean environment."""
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print("bench: src/repro is not in this directory; nothing to measure", file=sys.stderr)
        return 2
    cmd, env = command(argv, "measure")
    os.chdir(harness.ROOT)
    sys.stdout.flush()
    os.execve(cmd[0], cmd, env)


def setup_child(argv) -> dict:
    """One whole set-up in a fresh process; on timeout its whole group is killed."""
    cmd, env = command(argv, "setup")
    proc = subprocess.Popen(cmd, env=env, cwd=harness.ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:  # it stops its own children; whatever is left in its group goes with it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def workload_for(args):
    from .workloads import WORKLOADS, smoke

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    return smoke(w) if args.smoke else w


async def setup_session(args, cache_dir):
    """Full set-up; returns (session, seconds since this process was launched)."""
    from .phases import Session  # imports the program under test

    launched = float(os.environ.get(T0_VAR) or time.monotonic())
    imported = time.monotonic() - launched
    session = Session(workload_for(args), args.seed, cache_dir)
    await session.warm_server()
    session.stages["import_s"] = imported
    return session, time.monotonic() - launched


async def setup_only(args, cache_dir) -> dict:
    session, seconds = await setup_session(args, cache_dir)
    await session.close(harness.Phase())
    return {"setup_s": seconds, **session.stages}


async def measure(args, argv, cache_dir) -> dict:
    phases = defaultdict(harness.Phase)
    session, own_setup = await setup_session(args, cache_dir)
    fresh = harness.Part(
        "setup_s", lambda: setup_child(argv), ops=1, check=lambda out: 0,
        value_of=lambda dt, out: out["setup_s"],
    )
    gc.collect()
    gc.freeze()  # the inputs are millions of objects; keep them out of every collection
    notes = []
    try:
        session.check_interpreter(phases["oracle"])
        first, second = session.counts(), session.counts()
        differing = [k for k in first if first[k] != second[k]]
        phases["counts"].record(
            len(first), len(differing),
            f"counts differ between two passes: {differing}" if differing else None,
        )
        timings = session.timings()
        seconds = args.seconds / 3 if args.trace else args.seconds
        floor = 2 if args.smoke else MIN_ROUNDS // 2 if args.trace else MIN_ROUNDS
        spaced = None if args.trace or args.smoke else fresh
        children = max(2, min(6, int(SETUP_BUDGET_S / own_setup)))  # a cheap set-up is sampled more
        rounds = await harness.run_rounds(
            timings, phases, 0 if args.smoke else seconds, floor, MAX_ROUNDS, spaced, children
        )
        dead = [p.name for t in timings for p in t.parts if not p.samples]
        if dead:  # not one block of these succeeded: there is no value to print
            errors = [e for ph in phases.values() for e in ph.errors]
            sys.exit(f"bench: every block failed for {dead}\n" + "\n".join(errors))
        if args.trace:
            from . import layers

            metrics, notes = await layers.measure(session, timings, rounds, phases, args)
        else:
            metrics = {t.name: t.best() for t in timings}
            metrics.update(first, setup_s=min(fresh.samples + [own_setup]))
    finally:
        await session.close(phases["teardown"])
    if not args.trace:
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
    return {"metrics": metrics, "phases": phases, "rounds": rounds, "timings": timings, "notes": notes}


def report(args, result) -> int:
    """Print every metric by name with its unit, the phase table, then the JSON line."""
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[section]}
    metrics, phases = result["metrics"], result["phases"]
    absent = [name for name in units if name not in metrics]  # a part of the program that is gone
    if absent and not args.trace:
        sys.exit(f"bench: end-to-end metrics not measured: {absent}")
    print(f"workload {args.workload}  seed {args.seed}  rounds {result['rounds']}  {section}")
    print(f"host {harness.host_facts()}")
    for name, unit in units.items():
        shown = "absent" if name in absent else f"{metrics[name]:.6g} {unit}"
        print(f"  {name:<40} {shown}")
    print("\n".join(result["notes"] + ["  block (one row per program)              best ms     median ms"]))
    for t in result["timings"]:
        for part in t.parts:
            med, _ = harness.quartiles(part.samples)
            print(f"  {part.name:<40} {min(part.samples) * 1e3:>9.3f}  {med * 1e3:>12.3f}")
    print("  phase                     attempted  succeeded  failed")
    for name, ph in phases.items():
        print(f"  {name:<25} {ph.attempted:>9}  {ph.attempted - ph.failed:>9}  {ph.failed:>6}")
        for err in ph.errors:
            print(f"    ! {err}")
    attempted = sum(ph.attempted for ph in phases.values())
    failed = sum(ph.failed for ph in phases.values())
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a part of the program that is gone reads 0 here and "absent" above
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": u} for n, u in units.items()},
    }
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parse(argv)
    if args.role == "launch":
        return launch(argv)
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # stopped from outside: still clean up
    os.makedirs(harness.OUT, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=harness.OUT)
    try:
        if args.role == "setup":
            print(json.dumps(asyncio.run(setup_only(args, cache_dir))))
            return 0
        return report(args, asyncio.run(measure(args, argv, cache_dir)))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        harness.reap_children()


if __name__ == "__main__":
    sys.exit(main())
