"""Untraced execution of BVRAM programs: one tier, ``fused``.

An untraced run (``BVRAM.run(..., record_trace=False)``, which
``CompiledProgram.run``/``run_batch`` and the shard workers take) builds a
cached *plan* from the op table (:func:`repro.backends.fused.plan_for`: one
entry per instruction, each register op's closure built by its class's
``step()`` in :mod:`repro.bvram.isa` — the same table the traced reference
walks), groups its straight-line runs into one closure call per block, and
hands it to the one dispatch loop (:func:`repro.backends.base.run_plan`),
which keeps the exact Section 2 ``T``/``W`` accounting.  There is no second
tier and nothing selects one: the generated-source ``vector`` tier was
deleted because, on every benchmark workload, building its plan cost more
than its faster blocks won back (README, "One untraced tier").

:func:`available_backends` and :func:`get_backend` remain only for the
benchmark's per-layer rows, which name the tiers they time.
"""

from . import fused
from .base import BLOCK, HALT, JUMP, STEP, TRAP


def available_backends() -> tuple[str, ...]:
    """``("fused",)``: the one tier the benchmark's per-layer rows time."""
    return ("fused",)


def get_backend(name: str):
    """The :mod:`~repro.backends.fused` module (it has ``plan(program)``)."""
    if name != "fused":
        raise ValueError(f"unknown backend {name!r}; available: fused")
    return fused


__all__ = [
    "available_backends",
    "get_backend",
    "fused",
    "STEP",
    "JUMP",
    "HALT",
    "TRAP",
    "BLOCK",
]
