"""One fork-safe home for every lazily-built execution cache.

Every plan cache (op table, fused plan, profiler metadata)
needs a lock that survives ``os.fork``; this module is the one
implementation they share:

* :class:`ForkSafeLock` — a ``threading.Lock`` that re-initialises itself in
  forked children.  ``os.fork`` copies a lock in whatever state the forking
  thread saw; if any *other* thread held it at fork time, every acquisition
  in the child would deadlock.  One process-wide ``after_in_child`` handler
  walks the registry and replaces every registered lock with a fresh one.
* :class:`PlanCache` — the identity-snapshot, double-checked cache the plan
  builders all share.  The cached value lives on the program object under
  ``attr`` together with a snapshot of the exact instruction objects it was
  built from: the snapshot keeps them alive, and any in-place edit of the
  instruction list — append, replacement, reorder — fails the snapshot
  comparison and rebuilds.  The comparison is a single C-level list ``==``
  (identity-shortcut per element), far below the cost of one instruction.

Both are meant for **module-level singletons** (a handful per process): the
registry holds strong references to every registered reset callback for the
life of the process, by design — cache locks are process-lifetime objects.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

_RESETS: list[Callable[[], None]] = []
_REGISTRY_LOCK = threading.Lock()


def register_reset(fn: Callable[[], None]) -> None:
    """Register ``fn`` to run in every forked child (after-in-child).

    Used by :class:`ForkSafeLock` automatically; other fork-sensitive caches
    may register their own reset.  Callbacks run in registration order and
    must not raise.
    """
    with _REGISTRY_LOCK:
        _RESETS.append(fn)


def _after_fork_in_child() -> None:
    # the registry lock itself is subject to the same mid-acquisition hazard
    global _REGISTRY_LOCK
    _REGISTRY_LOCK = threading.Lock()
    for fn in list(_RESETS):
        fn()


os.register_at_fork(after_in_child=_after_fork_in_child)


class ForkSafeLock:
    """A mutex whose child-side copy is always released after ``os.fork``.

    Drop-in for the ``threading.Lock`` subset the caches use (context
    manager, ``acquire(timeout=...)``, ``release``, ``locked``).  Never held
    while *executing* a plan — only while building one — so replacing the
    inner lock in a forked child cannot strand a critical section that
    matters in that child.
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        register_reset(self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()

    def __enter__(self) -> "ForkSafeLock":
        self._lock.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()


class PlanCache:
    """Identity-snapshot plan cache stored on the program object.

    ``attr`` names the per-program attribute (it must be listed in
    ``CompiledProgram._CACHE_ATTRS`` so plans never cross a pickle
    boundary); ``build`` compiles a plan from a program.  Thread-safe: the
    lock-free fast path reads one attribute (an atomic tuple under the GIL);
    a miss takes the cache's own :class:`ForkSafeLock`, re-checks, and
    builds at most once per program generation.

    Nested lookups (the fused-plan and profiler builders call the op-table
    cache for the base plan) are safe because every cache has its *own* lock and the
    build dependencies are acyclic — the acquisition order is fixed by the
    builder chain, so plain non-reentrant locks suffice.
    """

    __slots__ = ("attr", "_build", "_lock")

    def __init__(self, attr: str, build: Callable) -> None:
        self.attr = attr
        self._build = build
        self._lock = ForkSafeLock()

    def _get(self, program):
        cached = getattr(program, self.attr, None)
        if cached is not None:
            instructions, labels, plan = cached
            # list ``==`` short-circuits on element *identity* before falling
            # back to value equality, so an untouched program costs one
            # C-level pointer scan — and a value-equal replacement (same
            # instruction, new object) soundly keeps the plan.  Jump targets
            # are resolved at build, so a moved label is a new program too.
            if instructions == program.instructions and labels == program.labels:
                return plan
        return None

    def lookup(self, program):
        """The cached plan for ``program``, building it on first use."""
        plan = self._get(program)
        if plan is not None:
            return plan
        with self._lock:
            plan = self._get(program)
            if plan is not None:
                return plan
            plan = self._build(program)
            setattr(program, self.attr, (list(program.instructions), dict(program.labels), plan))
        return plan
