"""Batched serving: run B independent inputs as one flattened machine run.

The paper's flattening makes compiled code nesting-depth independent, so a
batch of B requests to the same program is *just one more segment level*:
every program's root context is a width-B batch template (see
:func:`repro.compiler.compile_nsc`), so ``run_batch`` stacks the B input
encodings (one extra batch-segment descriptor per sequence field, no
per-request marshalling loop), executes the single instruction stream once,
and splits the outputs back per request.  All per-instruction interpreter
overhead — the thing that dominates small per-request inputs — is amortised
over the whole batch.  ``CompiledProgram.run`` is the same program on a
batch of one.

Fallback loop
-------------

``run_batch`` degrades to a documented per-input loop (one fresh machine per
input, so a failure cannot corrupt sibling results) in exactly three cases:

* a request cannot be **encoded** (see below);
* the batched run raises :class:`~repro.bvram.machine.BVRAMError` — either
  because some input genuinely traps (Omega, division by zero, ``get`` of a
  non-singleton, ...), or because the *combined* batch overflows a machine
  limit no single input hits (the segmented scans compute one global cumsum
  across the batch, so B inputs each near ``2**63`` can overflow jointly);
* the caller passed ``return_exceptions=True`` and the batched run trapped,
  in which case per-input isolation is the requested semantics.

In the fallback, a trapping input raises :class:`BatchError` whose message
and ``.index`` name the failing batch position (first failing index in batch
order); with ``return_exceptions=True`` the error object is returned *in
place* and every sibling's result is exactly its independent ``run()``
value.

Requests are S-objects or plain Python data; plain data is encoded per
field inside the ``batch/encode`` span, directed by the program's input type
(:func:`repro.compiler.codegen.encode_inputs`) — no S-object tree is built
on the way in.  A request that cannot be **encoded** (a negative or
over-wide natural, data of the wrong shape or nested deeper than the
recursion limit: :data:`ENCODE_ERRORS`) is that one caller's error, like a
trap: the batch takes the same per-input loop, the offender gets an in-slot
:class:`BatchError` under ``return_exceptions=True`` and its original
exception is raised otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..bvram import BVRAM, BVRAMError, RunResult
from ..nsc.values import Value
from ..obs.trace import span as _span
from .nsa import CompileError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import CompiledProgram


class BatchError(BVRAMError):
    """A batched run failed on one specific input; ``index`` names it.

    ``cause_text`` keeps the underlying machine error separately from the
    formatted message so the index can be *re-based*: a shard executor runs
    a sub-range of the batch, and an error at local index ``j`` of the shard
    starting at ``off`` must surface as global index ``off + j``
    (:meth:`rebased`).  The class also pickles exactly (``__reduce__``) —
    shard workers return these objects across process boundaries.
    """

    def __init__(
        self,
        message: str,
        index: Optional[int] = None,
        cause_text: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.index = index
        self.cause_text = cause_text if cause_text is not None else message

    @classmethod
    def at(cls, index: int, cause_text: str) -> "BatchError":
        """The canonical per-input error: names the failing batch position."""
        return cls(f"batch index {index}: {cause_text}", index=index, cause_text=cause_text)

    def rebased(self, offset: int) -> "BatchError":
        """This error re-addressed from shard-local to global batch indices."""
        if self.index is None or offset == 0:
            return self
        return BatchError.at(self.index + offset, self.cause_text)

    def __reduce__(self):
        # default exception pickling replays __init__ with self.args only,
        # which would drop the index a shard worker attributed
        return (BatchError, (self.args[0], self.index, self.cause_text))


#: what a request that cannot be marshalled raises: Python data no S-object
#: spells (``ValueError``/``TypeError``), a value of the wrong type, width or
#: nesting depth (:class:`CompileError`)
ENCODE_ERRORS = (CompileError, ValueError, TypeError)


def _execute(
    prog: "CompiledProgram",
    inputs: list[np.ndarray],
    count: int,
    max_steps: int,
    backend: Optional[str],
) -> Optional[RunResult]:
    """One batched machine run; ``None`` when it raised (the fallback loop's cue).

    The error is kept on the program so a batched run that degrades for an
    *infrastructure* reason (an ABI mismatch, a plan bug — not an input
    trap) is observable instead of silently running B times slower; the
    battery test asserts this stays ``None``.
    """
    try:
        with _span("batch/execute", "serve", batch=count) as sp:
            res = BVRAM(prog.n_registers).run(
                prog, inputs, max_steps=max_steps, record_trace=False, backend=backend
            )
            sp.note(time=res.time, work=res.work)
    except BVRAMError as e:
        prog._batch_fallback_error = e
        return None
    prog._batch_fallback_error = None
    return res


def run_batch(
    prog: "CompiledProgram",
    values: Sequence[object],
    max_steps: int = 10_000_000,
    return_exceptions: bool = False,
    backend: Optional[str] = None,
) -> list[Value]:
    """Run ``prog`` on every input in ``values``; see the module docstring."""
    if not values:
        return []
    try:
        with _span("batch/encode", "serve", batch=len(values)):
            inputs = prog.encode_batch_input(values)
    except ENCODE_ERRORS:
        # one request is malformed: the loop below marshals each input on
        # its own, so only the offender fails
        res = None
    else:
        res = _execute(prog, inputs, len(values), max_steps, backend)
    if res is not None:
        with _span("batch/decode", "serve", batch=len(values)):
            return prog.decode_batch_output(res.registers, len(values))
    with _span("batch/fallback", "serve", batch=len(values)):
        return _run_batch_fallback(prog, values, max_steps, return_exceptions, backend)


def run_batch_fields(
    prog: "CompiledProgram",
    fields: Sequence[np.ndarray],
    count: int,
    max_steps: int = 10_000_000,
    backend: Optional[str] = None,
) -> tuple[str, list]:
    """Run a batch already in canonical **field encoding**; no re-encode.

    ``fields`` is the ``encode_batch(values, prog.dom)`` image of ``count``
    inputs — value fields only, the batch-template register is appended
    here.  This is the shard-worker entry point of the span transport: the
    fields may be read-only views over received out-of-band frames, and on
    the fast path **no S-object is ever materialised** — the return is
    ``("registers", regs)``, the output registers still in flat encoding,
    for the caller to ship back and decode on the other side.

    When the batched run traps, the inputs are decoded from the fields and
    the documented per-input fallback loop takes over, returning
    ``("values", results)`` with in-slot :class:`BatchError` objects — the
    same isolation semantics as ``run_batch(return_exceptions=True)``.
    """
    if count == 0:
        return ("values", [])
    inputs = [*fields, np.zeros(count, dtype=np.int64)]
    res = _execute(prog, inputs, count, max_steps, backend)
    if res is not None:
        return ("registers", res.registers[: prog.n_outputs])
    from .codegen import decode_batch

    vals = decode_batch(fields, prog.dom, count)
    with _span("batch/fallback", "serve", batch=count):
        return ("values", _run_batch_fallback(prog, vals, max_steps, True, backend))


def _run_batch_fallback(
    prog: "CompiledProgram",
    vals: Sequence[object],
    max_steps: int,
    return_exceptions: bool,
    backend: Optional[str] = None,
) -> list[Value]:
    """Per-input loop: one fresh machine per input, failures isolated."""
    out: list[Value] = []
    for i, v in enumerate(vals):
        # only marshalling is the request's own error here; whatever else
        # the machine or the decoder raises is a bug and propagates
        try:
            inputs = prog.encode_input(v)
        except ENCODE_ERRORS as e:
            if not return_exceptions:
                raise  # a malformed request keeps its own exception type
            out.append(BatchError.at(i, str(e)))
            continue
        try:
            res = BVRAM(prog.n_registers).run(
                prog, inputs, max_steps=max_steps, record_trace=False, backend=backend
            )
        except BVRAMError as e:
            err = BatchError.at(i, str(e))
            if not return_exceptions:
                raise err from e
            out.append(err)
            continue
        out.append(prog.decode_output(res.registers))
    return out


def split_shards(n: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``(offset, length)`` spans splitting ``n`` items ``shards`` ways.

    Same convention as ``np.array_split``: the first ``n % shards`` spans get
    one extra item, later spans may be empty when ``shards > n``.  Spans are
    in batch order, so concatenating per-shard results in span order is the
    order-preserving reassembly.
    """
    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
    base, extra = divmod(n, shards)
    spans: list[tuple[int, int]] = []
    off = 0
    for i in range(shards):
        length = base + (1 if i < extra else 0)
        spans.append((off, length))
        off += length
    return spans
