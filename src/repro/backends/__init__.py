"""Pluggable execution backends for untraced BVRAM runs.

A backend turns a validated program into a cached *plan* and hands it to
the one dispatch loop (:func:`repro.backends.base.run_plan`), which keeps
the exact Section 2 ``T``/``W`` accounting.  Both start from the op table
(:func:`repro.backends.fused.plan_for`): one entry per instruction, each
register op's closure built by its class's ``step()``
(:mod:`repro.bvram.isa`) — the same table the traced reference walks.  Two
ship here:

* ``fused`` — the table's closures grouped into one call per straight-line
  block; the plan is cheap to build, so this is the default;
* ``vector`` — each block compiled to one *generated* Python function of
  NumPy mega-ops with interval-bound guard elision; faster blocks, a far
  dearer plan.

Select per call (``run(..., backend="vector")``), per program
(``compile_nsc(fn, backend="vector")`` — the choice survives pickling to
shard workers), or per process (``REPRO_BACKEND=vector``).
"""

from .base import (
    BLOCK,
    HALT,
    JUMP,
    STEP,
    TRAP,
    Backend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from .fused import FUSED
from .vector import VECTOR

__all__ = [
    "Backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "STEP",
    "JUMP",
    "HALT",
    "TRAP",
    "BLOCK",
    "FUSED",
    "VECTOR",
]
