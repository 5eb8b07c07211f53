"""Does the benchmark repeat on this host?  Two checks on identical code.

    python3 bench/aa_check.py                 # A/A: two full sets, same seed, alternating order
    python3 bench/aa_check.py --spread 10     # ten seeds per workload: IQR / median per metric
    python3 bench/aa_check.py --baseline bench/out/baseline.json   # one full set, both modes

A/A prints, per metric and workload, both values, the relative gap (positive =
the second set is worse), the bound, and PASS/FAIL at the bound and at half the
bound.  ``--spread`` prints the distance between the quartiles of N runs as a
share of their median, the way the driver computes it; the target is a third
of the bound.  Either exits non-zero on a FAIL at the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds, trace: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}\n{out.stderr}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        sys.exit(f"{workload} seed {seed}: {line['failed']} of {line['attempted']} operations failed")
    return {name: m["value"] for name, m in line["metrics"].items()}


def worsening(first: float, second: float, better: str) -> float:
    """Relative change from ``first`` to ``second``, positive when ``second`` is worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def verdict(value: float, bound: float) -> str:
    return "PASS" if value <= bound else "FAIL"


def aa(spec, workloads, seed, seconds) -> bool:
    sets = [{}, {}]
    for i, w in enumerate(workloads):  # alternate which set goes first
        for k in (0, 1) if i % 2 == 0 else (1, 0):
            sets[k][w] = run_once(w, seed, seconds)
    ok = True
    print(f"{'workload':<14} {'metric':<16} {'first':>12} {'second':>12} {'gap':>8} {'bound':>6}"
          "  at bound  at half")
    for w in workloads:
        for m in spec["end_to_end"]:
            a, b = sets[0][w][m["name"]], sets[1][w][m["name"]]
            gap = worsening(a, b, m["better"])
            if m["name"] != "setup_s":  # accepted on medians of ten, not on one pair
                ok &= abs(gap) <= m["bound"]
            print(
                f"{w:<14} {m['name']:<16} {a:>12.6g} {b:>12.6g} {gap:>+8.2%} {m['bound']:>6}"
                f"  {verdict(abs(gap), m['bound']):>8}  {verdict(abs(gap), m['bound'] / 2):>7}"
            )
    return ok


def spread(spec, workloads, runs, seconds) -> bool:
    ok = True
    print(f"{'workload':<14} {'metric':<16} {'median':>12} {'iqr/median':>10} {'bound':>6}"
          "  at bound  at third  each run / median")
    for w in workloads:
        results = [run_once(w, seed, seconds) for seed in range(1, runs + 1)]
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            if m["name"] != "setup_s":
                ok &= share <= m["bound"]
            print(
                f"{w:<14} {m['name']:<16} {med:>12.6g} {share:>10.2%} {m['bound']:>6}"
                f"  {verdict(share, m['bound']):>8}  {verdict(share, m['bound'] / 3):>8}"
                f"  {' '.join(f'{v / med:.2f}' for v in values)}",
                flush=True,
            )
    return ok


def baseline(path, workloads, seed, seconds) -> bool:
    """One full set from this host: end-to-end values, then the traced run's per-layer ones."""
    sys.path.insert(0, ROOT)
    from bench.harness import host_facts

    record = {"host": host_facts(), "seed": seed, "workloads": {}}
    for w in workloads:
        record["workloads"][w] = {
            "end_to_end": run_once(w, seed, seconds),
            "per_layer": run_once(w, seed, seconds, trace=1),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--spread", type=int, default=0, metavar="N", help="N seeds per workload")
    ap.add_argument("--baseline", metavar="PATH", help="write one full set (both modes) as JSON")
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.baseline:
        ok = baseline(args.baseline, workloads, args.seed, args.seconds)
    elif args.spread:
        ok = spread(spec, workloads, args.spread, args.seconds)
    else:
        ok = aa(spec, workloads, args.seed, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
