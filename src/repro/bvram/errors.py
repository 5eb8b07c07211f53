"""The BVRAM trap exception, in a leaf module every layer can import.

``BVRAMError`` is raised by the machine, by the instructions' ``step()``
closures (:mod:`repro.bvram.isa`) and by the shared vector kernels
(:mod:`repro.bvram.kernels`).  The kernels sit below the ISA and the ISA
below the machine, so the exception lives here, below all three.
:mod:`repro.bvram` re-exports it unchanged — every existing
``from repro.bvram import BVRAMError`` keeps working.
"""

from __future__ import annotations


class BVRAMError(RuntimeError):
    """Raised when a BVRAM execution is undefined (bad lengths, div by zero, ...)."""
