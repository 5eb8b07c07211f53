"""Shared harness for the ``bench_e*.py`` experiments.

Every experiment file used to hand-roll the same three pieces of
boilerplate; they live here once:

* **deterministic seeding** — :func:`rng` returns an isolated
  ``random.Random`` so experiments never depend on (or disturb) the global
  RNG state, and re-runs reproduce the published tables bit for bit;
* **wall-clock timing** — :func:`wall` is best-of-N ``perf_counter``
  timing, the convention used for every speedup claim in EXPERIMENTS.md;
* **machine-readable results** — :func:`record` collects one JSON-able dict
  per measured quantity.  When the ``BENCH_JSON`` environment variable is
  set, each record is also appended to that file as a JSON line.

Records carry these fields where they apply:
``time`` / ``work`` (machine or Definition 3.1 counters — deterministic, so
they regress loudly), ``wall_s`` (wall-clock seconds) and ``opt_level``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time
from functools import lru_cache
from typing import Any, Callable

_RECORDS: list[dict[str, Any]] = []


@lru_cache(maxsize=1)
def host_info() -> dict[str, Any]:
    """The machine facts a wall-clock number is meaningless without.

    Attached to every record so a BENCH_*.json line can be judged in
    context: core count (parallel benches) and interpreter version.
    """
    return {"cpus": os.cpu_count(), "python": platform.python_version()}


def rng(seed: int = 0) -> random.Random:
    """A deterministic, isolated random generator for one experiment."""
    return random.Random(seed)


def wall(fn: Callable, *args, repeat: int = 3) -> tuple[float, Any]:
    """Best-of-``repeat`` wall-clock seconds for ``fn(*args)`` plus its result."""
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def record(name: str, **fields: Any) -> dict[str, Any]:
    """Emit one machine-readable result record (see module docstring)."""
    rec: dict[str, Any] = {"name": name, **fields}
    rec.setdefault("host", host_info())
    _RECORDS.append(rec)
    path = os.environ.get("BENCH_JSON")
    if path:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return rec


def records() -> list[dict[str, Any]]:
    """All records emitted so far in this process (newest last)."""
    return list(_RECORDS)
