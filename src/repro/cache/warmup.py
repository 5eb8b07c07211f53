"""Populate / verify a compile cache with the differential battery.

The CI cold/warm leg drives this module twice against one directory::

    python -m repro.cache.warmup --dir .repro-cache --manifest cold.json
    python -m repro.cache.warmup --dir .repro-cache --manifest warm.json --expect-warm

Each invocation compiles the full :func:`repro.compiler.difftest.suite`
battery (every program at opt levels 0 and 2) **through the cache**, runs
every suite input, and runs all of a case's inputs as one ``run_batch``,
writing a JSON manifest of ``{run: {value, time, work}}`` and ``{batch:
{values}}``.  Because the manifest is keyed and sorted deterministically,
``diff cold.json warm.json`` (ignoring the timing header) proves the warm
pass — which served every program from disk, in a *new process* — is
bit-identical in results and ``T'``/``W'`` to the cold compile, for single
and batched runs alike: both execute the one cached artifact.  ``--expect-warm`` additionally exits
non-zero unless the pass saw zero compile-cache misses, which is how CI
asserts the ``actions/cache`` restore actually worked.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..compiler import compile_nsc
from ..compiler.difftest import suite
from .store import CompileCache

#: opt levels each battery program is compiled at (the cold/warm identity is
#: asserted across this axis in CI and in tests/test_cache.py)
OPT_LEVELS = (0, 2)


def run_battery(store: CompileCache) -> dict:
    """Compile + run (singly and batched) the battery through ``store``; deterministic manifest."""
    runs: dict[str, dict] = {}
    for name, fn, inputs in suite():
        for opt in OPT_LEVELS:
            prog = compile_nsc(fn, opt_level=opt, cache=store)
            for i, value in enumerate(inputs):
                out, res = prog.run(value)
                runs[f"{name}/opt{opt}/in{i}"] = {
                    "value": str(out),
                    "time": res.time,
                    "work": res.work,
                }
            batch = prog.run_batch(inputs, return_exceptions=True)
            runs[f"{name}/opt{opt}/batch"] = {"values": [str(out) for out in batch]}
    return dict(sorted(runs.items()))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", required=True, help="cache directory (REPRO_CACHE_DIR)")
    ap.add_argument("--manifest", help="write the run manifest (JSON) here")
    ap.add_argument(
        "--expect-warm",
        action="store_true",
        help="fail unless every compile was a cache hit (CI warm phase)",
    )
    args = ap.parse_args(argv)

    store = CompileCache(args.dir)
    t0 = time.perf_counter()
    runs = run_battery(store)
    elapsed = time.perf_counter() - t0
    snap = store.snapshot()

    print(
        f"battery: {len(runs)} runs in {elapsed:.2f}s | "
        f"cache hits={snap['hits']} misses={snap['misses']} "
        f"stores={snap['stores']} corrupt={snap['corrupt']} "
        f"disk_entries={snap['disk_entries']} disk_bytes={snap['disk_bytes']}"
    )
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.expect_warm and (snap["misses"] or not snap["hits"]):
        print(
            f"FAIL: expected a warm cache, saw {snap['misses']} misses "
            f"/ {snap['hits']} hits",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
