"""The NSC -> BVRAM compiler: Section 7's compilation chain, end to end.

The paper's headline theorem (Theorem 7.1) states that every NSC program of
time complexity ``T`` and work complexity ``W`` can be executed on a Bounded
Vector RAM in time ``T' = O(T)`` and work ``W' = O(W^(1+eps))`` for any fixed
``eps > 0``.  This package implements that compilation as three passes, each
mapped to its place in Section 7:

Pass 1 — :mod:`repro.compiler.nsa` (*variable elimination*, Section 7 step 1)
    Lowers the NSC AST into **NSA**, a first-order administrative-normal-form
    IR: lambdas are beta-inlined, ``let`` becomes bindings, every value gets
    a unique typed name, and ``map`` / ``while`` / ``case`` carry their
    sub-programs as parameterised blocks with explicit free-variable lists
    (the closures whose size Definition 3.1 charges at application sites).

Pass 2 — :mod:`repro.compiler.flatten` (*flattening*, Section 7.1 + Lemma 7.2)
    Maps every nested-sequence value onto segment-descriptor vectors (the
    ``SEQ(t)`` encoding borrowed from [Ble90]) and lowers each NSA operation
    to segmented vector code.  ``map`` becomes a *context push* — the body's
    vector code is unchanged at any nesting depth, which is what makes
    ``T' = O(T)``.  Conditionals evaluate both branches on order-preserving
    packed sub-contexts and recombine with a flag-merge route, so no general
    permutation is ever needed (the point of Theorem 7.1).  The hard case,
    ``map(while(p, g))``, uses the **Lemma 7.2 staged scheme**: elements stay
    in relative order in a working set that is compacted only when the live
    count falls by the factor ``n^eps``, bounding the re-touching overhead by
    ``O(n^eps * W)`` with a register count independent of ``eps`` (the
    operational model of :mod:`repro.sa.flattening`, here as machine code).

Pass 3 — :mod:`repro.compiler.codegen` (*code generation*, Section 2 target)
    Emits :mod:`repro.bvram.isa` instructions — extended with the segmented
    ops (``flag_merge``, ``seg_scan``, ``seg_reduce``, ``un_arith``,
    ``trap``) that Proposition 2.1's butterfly argument also covers — and
    marshals S-objects to and from the canonical flat register layout.

Front door::

    from repro.compiler import compile_nsc
    prog = compile_nsc(fn, eps=0.5)       # fn : an NSC Function
    value, run = prog.run([3, 1, 2])      # plain data is encoded per field,
                                          # directed by the program's type
    print(value, run.time, run.work)      # T' and W' per the Section 2 costs

    outs = prog.run_batch([x1, x2, x3])   # B requests, ONE machine run: the
                                          # batch is one more segment level
                                          # (see repro.compiler.batch)

``eps`` is realised at run time as ``n^eps`` via repeated integer square
roots, so it is quantised down to ``2**-k`` (``1, 0.5, 0.25, ...``);
``CompiledProgram.eps`` is the realised value.  Programs
using named recursion must first pass through the Theorem 4.2 translation
(:func:`repro.maprec.translate.translate`) — together the two close the
paper's chain from recursive NSC all the way down to BVRAM instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..backends import get_backend
from ..bvram import BVRAM, RunResult
from ..bvram.isa import Program
from ..cache.store import ENV_DEFAULT, default_cache
from ..nsc import ast as A
from ..nsc.typecheck import infer_function
from ..nsc.types import Type
from ..nsc.values import Value
from ..obs.trace import span as _span
from .codegen import (
    Emitter,
    decode_batch,
    encode_inputs,
    field_count,
    reuse_registers,
    split_batch,
)
from .flatten import Ctx, Flattener, rep_from_regs, rep_regs
from .nsa import CompileError, block_size, hoist_projections, lower_function
from .optimize import eliminate_dead_instructions, optimize_block

__all__ = [
    "BatchError",
    "CompileError",
    "CompiledProgram",
    "compile_nsc",
]


@dataclass
class CompiledProgram(Program):
    """A BVRAM :class:`~repro.bvram.isa.Program` plus its NSC calling convention.

    Every program carries the **batch axis**: its root context has width B
    (one slot per independent request), fed by one extra input register —
    the *batch template*, a length-B vector — after the ``field_count(dom)``
    value registers.  One program therefore serves a single request (a
    batch of one, :meth:`run`) and B requests in one machine run
    (:meth:`run_batch`) alike: flattening makes the emitted code
    width-independent (the paper's point), so nothing else is compiled.

    ``backend`` pins the untraced execution backend for this program
    (``"fused"`` or ``"vector"``); ``None`` defers to the ``REPRO_BACKEND``
    environment variable and the ``fused`` default.
    It is a plain string field, so — unlike the derived plans below — the
    choice *survives pickling*: a shard worker or serving lane receiving
    the program re-derives the plan of the selected backend.
    """

    dom: Optional[Type] = None
    cod: Optional[Type] = None
    eps: float = 0.5
    nsa_size: int = 0
    opt_level: int = 2
    backend: Optional[str] = None

    #: run-time caches attached to instances after compilation; they hold
    #: closures (execution plans) and diagnostics that must not — and the
    #: plans *cannot* — cross a pickle boundary.  A shard worker receiving
    #: the program re-derives its plans on first use.
    _CACHE_ATTRS = (
        "_fast_plan",
        "_fused_plan",
        "_vector_plan",
        "_batch_fallback_error",
        "_profile_meta",
    )

    def __getstate__(self):
        state = dict(self.__dict__)
        for attr in self._CACHE_ATTRS:
            state.pop(attr, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def encode_input(self, value: object) -> list[np.ndarray]:
        """Marshal one S-object (or plain Python data) into the input registers."""
        return self.encode_batch_input([value])

    def encode_batch_input(self, values: Sequence[object]) -> list[np.ndarray]:
        """Marshal a batch of requests into the input-register image.

        Each request is an S-object or plain Python data (ints, lists,
        tuples, bools, ``None``); plain data goes straight into the fields,
        directed by ``dom`` (:func:`repro.compiler.codegen.encode_inputs`).
        The image is the width-B canonical encoding plus the batch template
        register.
        """
        assert self.dom is not None
        fields = encode_inputs(values, self.dom)
        fields.append(np.zeros(len(values), dtype=np.int64))
        return fields

    def encode_batch_fields(self, values: Sequence[object]) -> list[np.ndarray]:
        """The canonical field encoding of a batch — value fields only.

        Unlike :meth:`encode_batch_input` this never appends the batch
        template: it is the transport image a shard executor encodes
        **once** per batch and then splits into per-span views with
        :meth:`split_batch_fields`.
        """
        assert self.dom is not None
        return encode_inputs(values, self.dom)

    def split_batch_fields(
        self, fields: Sequence[np.ndarray], spans: Sequence[tuple[int, int]]
    ) -> list[list[np.ndarray]]:
        """Slice one batch's field encoding into per-span field **views**.

        Each span's field list is exactly what :meth:`encode_batch_fields`
        would produce for that sub-batch, but as zero-copy views into
        ``fields`` — the entry point the shard transport ships spans
        through (see :func:`repro.compiler.codegen.split_batch`).
        """
        assert self.dom is not None
        return split_batch(fields, self.dom, spans)

    def decode_batch_fields(self, fields: Sequence, count: int) -> list[Value]:
        """Rebuild ``count`` result S-objects from *output* field vectors.

        The inverse transport entry point: ``fields`` holds the codomain
        encoding — e.g. the output registers a shard worker shipped back as
        out-of-band frames — rather than a full register file.
        """
        assert self.cod is not None
        return decode_batch(fields, self.cod, count)

    def decode_output(self, registers: Sequence) -> Value:
        """Rebuild the result S-object from the output registers."""
        return self.decode_batch_output(registers, 1)[0]

    def decode_batch_output(self, registers: Sequence, count: int) -> list[Value]:
        """Rebuild ``count`` result S-objects from the output registers."""
        assert self.cod is not None
        fields = [registers[i] for i in range(self.n_outputs)]
        return decode_batch(fields, self.cod, count)

    def run(
        self,
        value: object,
        max_steps: int = 10_000_000,
        trace: bool = False,
        backend: Optional[str] = None,
    ) -> tuple[Value, RunResult]:
        """Execute on a fresh machine; returns (result S-object, T/W RunResult).

        ``trace=False`` (the default) takes the machine's untraced fast
        path: ``T'``/``W'`` totals are bit-identical to a traced run, but no
        per-instruction :class:`~repro.bvram.machine.TraceEntry` list is
        built.  Pass ``trace=True`` when the result will be replayed on the
        butterfly network or Brent-scheduled (they need the trace).
        ``backend`` overrides the untraced engine for this call (the
        program's own ``backend`` field, then ``REPRO_BACKEND``, then
        ``fused`` apply otherwise); it is ignored in traced mode.  The value
        runs as a batch of one.
        """
        machine = BVRAM(self.n_registers)
        res = machine.run(
            self,
            self.encode_batch_input([value]),
            max_steps=max_steps,
            record_trace=trace,
            backend=backend,
        )
        return self.decode_batch_output(res.registers, 1)[0], res

    def profile(self, value: object, max_steps: int = 10_000_000, backend: Optional[str] = None):
        """Profile one run: per-block hits, wall time and exact T'/W' attribution.

        Executes like an untraced ``run()`` (same backend selection, same
        cached plan, same dispatch loop) with the attributing wrappers of
        :mod:`repro.obs.profile` in place and returns a
        :class:`~repro.obs.profile.ProfileReport` — ``report.table()`` is
        the sorted hot-block table, each row's ``source_line`` indexes into
        ``report.listing`` (the instruction listing ``disassemble()``
        prints).  Per-entry ``time``/``work`` sums are bit-identical to the
        run's machine totals, on success and on every error path; a
        trapping input sets ``report.error`` instead of raising.  Opt-in
        per call: plain runs never pay for the instrumentation.
        """
        from ..obs.profile import profile_run

        report = profile_run(
            self, self.encode_input(value), max_steps=max_steps, backend=backend
        )
        if report.error is None:
            report.result = self.decode_output(report.registers)
        return report

    def disassemble(self, backend: Optional[str] = None) -> str:
        """The selected backend's plan listing / generated source for this program.

        ``fused`` returns an instruction listing annotated with its block
        boundaries; ``vector`` returns the generated Python source of its
        mega-op block functions.  Defaults to the same backend a ``run()``
        would select.
        """
        from ..backends import resolve_backend

        return resolve_backend(backend, program=self).disassemble(self)

    def run_batch(
        self,
        values: Sequence[object],
        max_steps: int = 10_000_000,
        return_exceptions: bool = False,
        executor: Optional[object] = None,
        shards: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> list[Value]:
        """Execute B independent inputs as **one** flattened machine run.

        The batch template is the root context, so serving B requests costs
        one instruction stream — not B Python dispatch loops.  Falls back to
        a per-input loop when a request cannot be encoded or the batched
        run traps; see :mod:`repro.compiler.batch` for the exact
        semantics (a trapping input raises :class:`BatchError` naming its
        batch index, or is returned in place with
        ``return_exceptions=True``).

        ``executor`` (a :class:`repro.serving.ShardExecutor`) routes the
        batch to the multi-core shard path: the batch is split along the
        batch axis into ``shards`` contiguous spans (default: one per
        worker), each span runs its own batched machine in a persistent
        worker process, and the results are reassembled order-preserving
        with trap indices re-based to this batch's global positions.
        """
        if executor is not None:
            return executor.run_batch(
                self,
                values,
                shards=shards,
                max_steps=max_steps,
                return_exceptions=return_exceptions,
                backend=backend,
            )
        from .batch import run_batch

        return run_batch(
            self,
            values,
            max_steps=max_steps,
            return_exceptions=return_exceptions,
            backend=backend,
        )


def compile_nsc(
    fn: A.Function,
    eps: float = 0.5,
    opt_level: int = 2,
    batch_axis: bool = True,
    backend: Optional[str] = None,
    cache: object = ENV_DEFAULT,
) -> CompiledProgram:
    """Compile a (typecheckable) NSC function to an executable BVRAM program.

    ``eps`` trades work for register pressure per Lemma 7.2 (``W' =
    O(W^(1+eps))``); it is quantised down to ``2**-k`` (``0.75`` compiles
    the ``0.5`` program), and ``prog.eps`` is the realised value.  Raises
    :class:`~repro.nsc.typecheck.NSCTypeError` on ill-typed input and
    :class:`CompileError` on programs outside the supported fragment
    (named recursion, equality on non-scalar types, sequence-typed closures
    under ``map``).

    ``opt_level`` selects the optimizing pipeline (see
    :mod:`repro.compiler.optimize`); every level computes the same values,
    and a higher level can only shrink the measured ``T'``/``W'``:

    * ``0`` — naive PR 2 emission (the baseline);
    * ``1`` — NSA-level passes: constant folding, copy propagation, CSE,
      trap-preserving dead-code elimination;
    * ``2`` (default) — additionally value-numbers the emitted stream
      (segment-descriptor reuse), deletes dead instructions and reuses dead
      registers by linear scan.

    The program's root context is a width-B batch of independent inputs
    whose template arrives as one extra input register after the
    ``field_count(dom)`` value fields; a single request is a batch of one.
    The emitted body is the same depth-independent flattened code at any
    width — batching is literally one more segment level.  ``batch_axis``
    is accepted for old callers: ``True`` is the only program there is, and
    ``False`` is a :class:`CompileError`.

    ``backend`` pins the untraced execution backend on the program (see
    :mod:`repro.backends`); the choice rides the program through pickling
    to shard workers.  Unknown names are a :class:`CompileError` here, not
    a run-time surprise.

    ``cache`` selects the content-addressed compile cache (see
    :mod:`repro.cache`): by default the ``REPRO_CACHE_DIR`` environment
    variable decides (unset = no cache); pass a
    :class:`~repro.cache.CompileCache` to use one explicitly, or ``None`` /
    ``False`` to bypass caching for this call.  A hit skips every pass and
    returns the stored program — value- and ``T'``/``W'``-identical to a
    fresh compile, because the key covers the canonical AST, every knob
    above, and the ISA/codegen version salt.
    """
    if not batch_axis:
        raise CompileError("batch_axis=False was removed: every program carries the batch axis")
    if opt_level not in (0, 1, 2):
        raise CompileError(f"opt_level must be 0, 1 or 2, got {opt_level!r}")
    if backend is not None:
        try:
            get_backend(backend)
        except ValueError as e:
            raise CompileError(str(e)) from None

    # resolve_cache's rule, inline (one profiled call fewer per compile);
    # default_cache() is the one reader of the environment
    store = default_cache() if cache is ENV_DEFAULT else (cache or None)
    if store is not None:
        from ..cache.key import cache_key

        key = cache_key(fn, eps=eps, opt_level=opt_level, backend=backend)
        with _span("compile/cache", "compile") as sp:
            hit = store.get(key)
            sp.note(hit=int(hit is not None))
        if hit is not None:
            return hit

    with _span("compile/nsa", "compile") as sp:
        ft = infer_function(fn)
        block = hoist_projections(lower_function(fn, ft.dom))
        nsa_size = block_size(block)
        sp.note(nsa_size=nsa_size)
    if opt_level >= 1:
        with _span("compile/optimize", "compile") as sp:
            block = optimize_block(block)
            nsa_size = block_size(block)
            sp.note(nsa_size=nsa_size)

    with _span("compile/flatten", "compile") as sp:
        n_fields = field_count(ft.dom)
        n_in = n_fields + 1  # the value fields, then the length-B batch template
        em = Emitter(reserved=n_in, value_number=opt_level >= 2)
        param = rep_from_regs(ft.dom, iter(range(n_fields)))
        fl = Flattener(em, eps)
        result = fl.compile_block(block, Ctx(n_fields), {block.params[0]: param})

        out_regs = rep_regs(result)
        temps = [em.move(r) for r in out_regs]  # two-phase: outputs may overlap inputs
        for i, t in enumerate(temps):
            em.move(t, dst=i)
        em.halt()
        sp.note(instructions=len(em.instructions), registers=em.n_regs)

    with _span("compile/codegen", "compile") as sp:
        instructions, labels = em.instructions, em.labels
        n_registers = em.n_regs  # at least the batch template
        if opt_level >= 2:
            instructions, labels = eliminate_dead_instructions(
                instructions, labels, n_outputs=len(out_regs)
            )
            instructions, n_registers = reuse_registers(
                instructions, labels, n_inputs=n_in, n_outputs=len(out_regs)
            )
        sp.note(instructions=len(instructions), registers=n_registers)

    prog = CompiledProgram(
        instructions=instructions,
        labels=labels,
        n_registers=n_registers,
        n_inputs=n_in,
        n_outputs=len(out_regs),
        dom=ft.dom,
        cod=ft.cod,
        eps=fl.eps,
        nsa_size=nsa_size,
        opt_level=opt_level,
        backend=backend,
    )
    prog.validate()
    if store is not None:
        store.put(key, prog)
    return prog


from .batch import BatchError  # noqa: E402  (needs CompiledProgram defined above)
