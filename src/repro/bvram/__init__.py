"""The Bounded Vector Random Access Machine (Section 2).

* :mod:`repro.bvram.isa` — the instruction set (no general permutation);
  each class owns its trace name and its ``step()`` semantics;
* :mod:`repro.bvram.kernels` — the vector kernels those steps call;
* :mod:`repro.bvram.machine` — the interpreter with the T/W cost model;
* :mod:`repro.bvram.programs` — hand-written programs used by tests and E1.
"""

from .isa import Program
from .machine import BVRAM, BVRAMError, RunResult, TraceEntry, run_program

__all__ = [
    "Program",
    "BVRAM",
    "BVRAMError",
    "RunResult",
    "TraceEntry",
    "run_program",
]
