"""Pass 2 of the NSC->BVRAM compiler: flattening onto segmented vectors.

This pass implements Section 7.1's ``SEQ`` encoding and the constructions of
Theorem 7.1 / Lemma 7.2: every NSA value is represented by a fixed (per-type)
tuple of flat vector registers, and every NSA operation — including the
nested-parallel ``map``, data-dependent ``case`` and the hard
``map(while(p, g))`` — is lowered to straight-line segmented BVRAM code.

Representation (:class:`Rep`): under an evaluation *context* of width ``w``
(``w`` simultaneous element slots; the root program has ``w = 1``),

* ``N`` and the tag of a sum are length-``w`` vectors,
* products concatenate the fields of their components,
* a sum holds its 0/1 tag vector plus the left payload *packed over the
  tag-true slots* and the right payload packed over the tag-false slots,
* ``[t]`` holds a segment descriptor (length ``w``; entry ``i`` is the length
  of slot ``i``'s sequence) plus the element fields in a *child context*
  whose width is the total data length.

Entering ``map`` pushes a child context; because every BVRAM instruction is
already elementwise-vectorised, the body's code is *identical* at any
nesting depth — this is why flattening gives ``T' = O(T)``.

Control flow never permutes data: branches evaluate on order-preserving
*packed* sub-contexts and results are recombined with the order-preserving
``flag_merge`` route, so the machine needs no general permutation
instruction (Theorem 7.1).  A pack is one bounded monotone route with the
0/1 mask as its counts, bounded by the packed template ``select(mask)``;
no value is shifted, so every int64 passes a branch.

The while case (Lemma 7.2) keeps the elements of a lifted
``while(p, g)`` in their original relative order in a *working set* and runs
``r = log2(1/eps)``-staged compaction: a stage ends when the live count drops
below ``m / n^eps`` of the stage's starting width ``m``; finished elements
ride along (never re-stepped, at most ``n^eps``-fold re-touched by the
packing) until the stage boundary flushes them into the final accumulator,
which is touched only ``O(1/eps)`` times.  This gives ``W' = O(n^eps * W)``
with a number of registers independent of ``eps`` — the paper's bound.
The loop is *rotated*: ``p`` runs once on the initial state before the loop
and then right after each step, so ``live`` always holds the last
predicate's answer.  An iteration packs the working set once (by ``live``),
steps and tests the packed elements, and merges the state back once.  Each
element sees ``p(x0), g(x0), p(x1), g(x1), ...`` in lockstep with the
others, so the vector steps run in that order and the first to trap names
the error (a predicate's trap before the same step's body overflow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..nsc.types import NatType, ProdType, SeqType, SumType, Type, UnitType
from . import nsa
from .codegen import Emitter
from .nsa import Block, CompileError, NVar, block_free_vars


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------


class Rep:
    """Base class of flattened value representations."""

    __slots__ = ()


@dataclass(frozen=True)
class RUnit(Rep):
    pass


@dataclass(frozen=True)
class RScalar(Rep):
    reg: int


@dataclass(frozen=True)
class RPair(Rep):
    left: Rep
    right: Rep


@dataclass(frozen=True)
class RSum(Rep):
    tag: int
    left: Rep
    right: Rep


@dataclass(frozen=True)
class RSeq(Rep):
    seg: int
    elem: Rep


def rep_regs(rep: Rep) -> list[int]:
    """All registers of ``rep`` in the canonical field order."""
    if isinstance(rep, RUnit):
        return []
    if isinstance(rep, RScalar):
        return [rep.reg]
    if isinstance(rep, RPair):
        return rep_regs(rep.left) + rep_regs(rep.right)
    if isinstance(rep, RSum):
        return [rep.tag] + rep_regs(rep.left) + rep_regs(rep.right)
    if isinstance(rep, RSeq):
        return [rep.seg] + rep_regs(rep.elem)
    raise CompileError(f"unknown rep {rep!r}")


def rep_from_regs(t: Type, regs: Iterator[int]) -> Rep:
    """Build a rep of type ``t`` from a register stream in canonical order."""
    if isinstance(t, UnitType):
        return RUnit()
    if isinstance(t, NatType):
        return RScalar(next(regs))
    if isinstance(t, ProdType):
        left = rep_from_regs(t.left, regs)
        return RPair(left, rep_from_regs(t.right, regs))
    if isinstance(t, SumType):
        tag = next(regs)
        left = rep_from_regs(t.left, regs)
        return RSum(tag, left, rep_from_regs(t.right, regs))
    if isinstance(t, SeqType):
        seg = next(regs)
        return RSeq(seg, rep_from_regs(t.elem, regs))
    raise CompileError(f"unknown type {t!r}")


def first_reg(rep: Rep) -> Optional[int]:
    """A register whose length equals the rep's context width, if any."""
    if isinstance(rep, RScalar):
        return rep.reg
    if isinstance(rep, RSum):
        return rep.tag
    if isinstance(rep, RSeq):
        return rep.seg
    if isinstance(rep, RPair):
        r = first_reg(rep.left)
        return r if r is not None else first_reg(rep.right)
    return None


@dataclass(frozen=True)
class Ctx:
    """An evaluation context: ``template`` is any register of the context width."""

    template: int


# ---------------------------------------------------------------------------
# The flattener
# ---------------------------------------------------------------------------


class Flattener:
    """Lowers NSA blocks to segmented BVRAM code through an :class:`Emitter`."""

    def __init__(self, em: Emitter, eps: float = 0.5) -> None:
        if not 0 < eps <= 1:
            raise CompileError("eps must lie in (0, 1]")
        self.em = em
        # n^eps is computed at run time by k-fold integer sqrt, so eps is
        # realised as 2^-k.  k rounds up, so the realised eps never exceeds
        # the requested one; the tolerance keeps 1, 0.5, 0.25, ... exact.
        self._sqrt_steps = max(0, math.ceil(math.log2(1.0 / eps) - 1e-9))
        self.eps = 2.0**-self._sqrt_steps

    # -- small vector idioms -------------------------------------------------

    def ones_like(self, reg: int) -> int:
        return self.em.arith("eq", reg, reg)

    def zeros_like(self, reg: int) -> int:
        return self.em.arith("-", reg, reg)

    def not_mask(self, mask: int) -> int:
        return self.em.arith("-", self.ones_like(mask), mask)

    def broadcast_const(self, value: int, ctx: Ctx) -> int:
        """A length-``w`` vector of ``value`` under context ``ctx``."""
        em = self.em
        data = em.load_const(value)
        count = em.length(ctx.template)
        return em.bm_route(data=data, counts=count, bound=ctx.template)

    def trap_unless_empty(self, probe: int, message: str) -> None:
        """Raise ``BVRAMError(message)`` at run time iff ``probe`` is non-empty.

        The ``ok`` label's only predecessors are the fallthrough and the
        guard jump itself — both reach it with identical register state, and
        the trap path never returns — so the emitter's value-numbering table
        survives the label (checkpoint/restore instead of the usual clear).
        """
        snapshot = self.em.vn_checkpoint()
        ok = self.em.new_label("ok")
        self.em.goto_if_empty(ok, probe)
        self.em.trap(message)
        self.em.mark(ok)
        self.em.vn_restore(snapshot)

    def pack_field(self, data: int, mask: int) -> int:
        """Keep the entries of ``data`` at the 1-slots of the 0/1 ``mask``, in order.

        ``np.repeat(data, mask)`` as one route; its bound ``select(mask)`` is
        the packed template callers already hold (value numbering shares it).
        A mask entry above 1 fails the route's bound check.
        """
        return self.em.bm_route(data=data, counts=mask, bound=self.em.select(mask))

    # -- structural rep operations ------------------------------------------

    def empty_rep(self, t: Type) -> Rep:
        """The rep of a width-0 context (no element slots)."""
        em = self.em
        if isinstance(t, UnitType):
            return RUnit()
        if isinstance(t, NatType):
            return RScalar(em.load_empty())
        if isinstance(t, ProdType):
            return RPair(self.empty_rep(t.left), self.empty_rep(t.right))
        if isinstance(t, SumType):
            return RSum(em.load_empty(), self.empty_rep(t.left), self.empty_rep(t.right))
        if isinstance(t, SeqType):
            return RSeq(em.load_empty(), self.empty_rep(t.elem))
        raise CompileError(f"unknown type {t!r}")

    def zero_rep(self, t: Type, ctx: Ctx) -> Rep:
        """An arbitrary well-formed rep of type ``t`` (dead code after a trap)."""
        if isinstance(t, UnitType):
            return RUnit()
        if isinstance(t, NatType):
            return RScalar(self.zeros_like(ctx.template))
        if isinstance(t, ProdType):
            return RPair(self.zero_rep(t.left, ctx), self.zero_rep(t.right, ctx))
        if isinstance(t, SumType):
            # all-inr: the left payload lives over zero slots
            return RSum(
                self.zeros_like(ctx.template),
                self.empty_rep(t.left),
                self.zero_rep(t.right, ctx),
            )
        if isinstance(t, SeqType):
            return RSeq(self.zeros_like(ctx.template), self.empty_rep(t.elem))
        raise CompileError(f"unknown type {t!r}")

    def pack_rep(self, rep: Rep, mask: int) -> Rep:
        """Restrict ``rep`` to the mask-true element slots (order-preserving)."""
        em = self.em
        if isinstance(rep, RUnit):
            return rep
        if isinstance(rep, RScalar):
            return RScalar(self.pack_field(rep.reg, mask))
        if isinstance(rep, RPair):
            return RPair(self.pack_rep(rep.left, mask), self.pack_rep(rep.right, mask))
        if isinstance(rep, RSum):
            tag = self.pack_field(rep.tag, mask)
            lmask = self.pack_field(mask, rep.tag)
            rmask = self.pack_field(mask, self.not_mask(rep.tag))
            return RSum(tag, self.pack_rep(rep.left, lmask), self.pack_rep(rep.right, rmask))
        if isinstance(rep, RSeq):
            seg = self.pack_field(rep.seg, mask)
            ext = first_reg(rep.elem)
            if ext is None:
                return RSeq(seg, rep.elem)
            cmask = em.bm_route(data=mask, counts=rep.seg, bound=ext)
            return RSeq(seg, self.pack_rep(rep.elem, cmask))
        raise CompileError(f"unknown rep {rep!r}")

    def merge_rep(self, flags: int, a: Rep, b: Rep) -> Rep:
        """Order-preserving merge: slot ``i`` from ``a`` iff ``flags[i]``."""
        em = self.em
        if isinstance(a, RUnit):
            return a
        if isinstance(a, RScalar):
            assert isinstance(b, RScalar)
            return RScalar(em.flag_merge(flags, a.reg, b.reg))
        if isinstance(a, RPair):
            assert isinstance(b, RPair)
            return RPair(
                self.merge_rep(flags, a.left, b.left),
                self.merge_rep(flags, a.right, b.right),
            )
        if isinstance(a, RSum):
            assert isinstance(b, RSum)
            tag = em.flag_merge(flags, a.tag, b.tag)
            lflags = self.pack_field(flags, tag)
            rflags = self.pack_field(flags, self.not_mask(tag))
            return RSum(
                tag,
                self.merge_rep(lflags, a.left, b.left),
                self.merge_rep(rflags, a.right, b.right),
            )
        if isinstance(a, RSeq):
            assert isinstance(b, RSeq)
            seg = em.flag_merge(flags, a.seg, b.seg)
            ext_a, ext_b = first_reg(a.elem), first_reg(b.elem)
            if ext_a is None or ext_b is None:
                return RSeq(seg, a.elem)
            bound = em.append(ext_a, ext_b)
            cflags = em.bm_route(data=flags, counts=seg, bound=bound)
            return RSeq(seg, self.merge_rep(cflags, a.elem, b.elem))
        raise CompileError(f"unknown rep {a!r}")

    def distribute_rep(self, rep: Rep, counts: int, new_template: int) -> Rep:
        """Replicate slot ``i`` of ``rep`` ``counts[i]`` times (map closures).

        This is the per-element broadcast of a ``map``-ed function's closure —
        the cost the Definition 3.1 map rule charges (the paper's ``p2``).
        Scalar fields use ``bm_route``; sequence fields use the segmented
        ``sbm_route`` (whole sub-sequences replicated as blocks), recursing
        with per-slot block totals from ``seg_reduce`` at each deeper level —
        the machine's bound pair ``(new_template, counts)`` is the same nested
        sequence at every level, so one bound register serves the whole type.
        """
        return self._distribute_blocks(rep, counts, self.ones_like(counts), new_template)

    def _distribute_blocks(self, rep: Rep, counts: int, block_segs: int, bound: int) -> Rep:
        """Tile the ``block_segs``-grouped entries of ``rep`` per ``counts``."""
        em = self.em
        if isinstance(rep, RUnit):
            return rep
        if isinstance(rep, RScalar):
            return RScalar(
                em.sbm_route(bound=bound, counts=counts, data=rep.reg, segments=block_segs)
            )
        if isinstance(rep, RPair):
            return RPair(
                self._distribute_blocks(rep.left, counts, block_segs, bound),
                self._distribute_blocks(rep.right, counts, block_segs, bound),
            )
        if isinstance(rep, RSum):
            tag = em.sbm_route(bound=bound, counts=counts, data=rep.tag, segments=block_segs)
            left_blocks = em.seg_reduce("+", rep.tag, block_segs)
            right_blocks = em.seg_reduce("+", self.not_mask(rep.tag), block_segs)
            return RSum(
                tag,
                self._distribute_blocks(rep.left, counts, left_blocks, bound),
                self._distribute_blocks(rep.right, counts, right_blocks, bound),
            )
        if isinstance(rep, RSeq):
            seg = em.sbm_route(bound=bound, counts=counts, data=rep.seg, segments=block_segs)
            child_blocks = em.seg_reduce("+", rep.seg, block_segs)
            return RSeq(seg, self._distribute_blocks(rep.elem, counts, child_blocks, bound))
        raise CompileError(f"unknown rep {rep!r}")

    def phi_rep(self, rep: Rep) -> Rep:
        """Copy ``rep`` into fresh loop-carried (phi) registers."""
        em = self.em
        if isinstance(rep, RUnit):
            return rep
        if isinstance(rep, RScalar):
            return RScalar(em.move(rep.reg))
        if isinstance(rep, RPair):
            return RPair(self.phi_rep(rep.left), self.phi_rep(rep.right))
        if isinstance(rep, RSum):
            return RSum(em.move(rep.tag), self.phi_rep(rep.left), self.phi_rep(rep.right))
        if isinstance(rep, RSeq):
            return RSeq(em.move(rep.seg), self.phi_rep(rep.elem))
        raise CompileError(f"unknown rep {rep!r}")

    def assign_rep(self, phi: Rep, value: Rep) -> None:
        """Move ``value``'s registers into the phi registers (same shape)."""
        for dst, src in zip(rep_regs(phi), rep_regs(value), strict=True):
            if dst != src:
                self.em.move(src, dst=dst)

    # -- block compilation ---------------------------------------------------

    def compile_block(self, block: Block, ctx: Ctx, env: dict[NVar, Rep]) -> Rep:
        env = dict(env)
        for bind in block.binds:
            env[bind.dst] = self.compile_op(bind.op, bind.dst.type, ctx, env)
        if block.result not in env:
            raise CompileError(f"block result {block.result!r} is unbound")
        return env[block.result]

    def _sub_env(self, blocks: Sequence[Block], env: dict[NVar, Rep]) -> list[NVar]:
        fvs: dict[int, NVar] = {}
        for b in blocks:
            for v in block_free_vars(b):
                fvs.setdefault(v.id, v)
        return [fvs[i] for i in sorted(fvs)]

    def compile_op(self, op: nsa.NOp, out_t: Type, ctx: Ctx, env: dict[NVar, Rep]) -> Rep:
        em = self.em

        if isinstance(op, nsa.NConst):
            return RScalar(self.broadcast_const(op.value, ctx))

        if isinstance(op, nsa.NUnit):
            return RUnit()

        if isinstance(op, nsa.NError):
            self.trap_unless_empty(ctx.template, "evaluation of the error term Omega")
            return self.zero_rep(out_t, ctx)

        if isinstance(op, nsa.NBin):
            a, b = env[op.a], env[op.b]
            assert isinstance(a, RScalar) and isinstance(b, RScalar)
            return RScalar(em.arith(op.op, a.reg, b.reg))

        if isinstance(op, nsa.NUn):
            a = env[op.a]
            assert isinstance(a, RScalar)
            return RScalar(em.un_arith(op.op, a.reg))

        if isinstance(op, nsa.NEq):
            a, b = env[op.a], env[op.b]
            ra = a.reg if isinstance(a, RScalar) else a.tag  # N or B
            rb = b.reg if isinstance(b, RScalar) else b.tag
            return RSum(em.arith("eq", ra, rb), RUnit(), RUnit())

        if isinstance(op, nsa.NPair):
            return RPair(env[op.a], env[op.b])

        if isinstance(op, nsa.NProj):
            p = env[op.a]
            assert isinstance(p, RPair)
            return p.left if op.index == 1 else p.right

        if isinstance(op, nsa.NInl):
            assert isinstance(out_t, SumType)
            return RSum(self.ones_like(ctx.template), env[op.a], self.empty_rep(out_t.right))

        if isinstance(op, nsa.NInr):
            assert isinstance(out_t, SumType)
            return RSum(self.zeros_like(ctx.template), self.empty_rep(out_t.left), env[op.a])

        if isinstance(op, nsa.NCase):
            return self._compile_case(op, ctx, env)

        if isinstance(op, nsa.NMap):
            return self._compile_map(op, ctx, env)

        if isinstance(op, nsa.NWhile):
            return self._compile_while(op, ctx, env)

        if isinstance(op, nsa.NEmpty):
            assert isinstance(out_t, SeqType)
            return RSeq(self.zeros_like(ctx.template), self.empty_rep(out_t.elem))

        if isinstance(op, nsa.NSingle):
            # one element per slot: segment descriptor of ones; the child
            # context coincides with the current one, so the payload rep is
            # reused unchanged — a pure reinterpretation.
            return RSeq(self.ones_like(ctx.template), env[op.a])

        if isinstance(op, nsa.NAppend):
            return self._compile_append(op, ctx, env)

        if isinstance(op, nsa.NFlatten):
            s = env[op.a]
            assert isinstance(s, RSeq) and isinstance(s.elem, RSeq)
            seg = em.seg_reduce("+", s.elem.seg, s.seg)
            return RSeq(seg, s.elem.elem)

        if isinstance(op, nsa.NLength):
            s = env[op.a]
            assert isinstance(s, RSeq)
            return RScalar(s.seg)

        if isinstance(op, nsa.NGet):
            s = env[op.a]
            assert isinstance(s, RSeq)
            ones = self.ones_like(s.seg)
            bad = em.select(self.not_mask(em.arith("eq", s.seg, ones)))
            self.trap_unless_empty(bad, "get applied to a sequence of length != 1")
            return s.elem

        if isinstance(op, nsa.NZip):
            a, b = env[op.a], env[op.b]
            assert isinstance(a, RSeq) and isinstance(b, RSeq)
            bad = em.select(self.not_mask(em.arith("eq", a.seg, b.seg)))
            self.trap_unless_empty(bad, "zip of sequences with different lengths")
            return RSeq(a.seg, RPair(a.elem, b.elem))

        if isinstance(op, nsa.NEnumerate):
            s = env[op.a]
            assert isinstance(s, RSeq)
            ext = first_reg(s.elem)
            if ext is None:
                raise CompileError("enumerate over unit-only elements is outside the fragment")
            return RSeq(s.seg, RScalar(em.seg_scan("+", self.ones_like(ext), s.seg)))

        if isinstance(op, nsa.NSplit):
            d, c = env[op.data], env[op.counts]
            assert isinstance(d, RSeq) and isinstance(c, RSeq)
            assert isinstance(c.elem, RScalar)
            sums = em.seg_reduce("+", c.elem.reg, c.seg)
            bad = em.select(self.not_mask(em.arith("eq", sums, d.seg)))
            self.trap_unless_empty(bad, "split counts do not sum to the sequence length")
            return RSeq(c.seg, RSeq(c.elem.reg, d.elem))

        raise CompileError(f"unknown NSA op {type(op).__name__}")

    # -- case ---------------------------------------------------------------

    def _compile_case(self, op: nsa.NCase, ctx: Ctx, env: dict[NVar, Rep]) -> Rep:
        em = self.em
        scrut = env[op.scrut]
        assert isinstance(scrut, RSum)
        tag = scrut.tag
        ntag = self.not_mask(tag)

        lctx = Ctx(em.select(tag))
        lenv = {op.left.params[0]: scrut.left}
        for v in self._sub_env([op.left], env):
            lenv[v] = self.pack_rep(env[v], tag)
        lres = self.compile_block(op.left, lctx, lenv)

        rctx = Ctx(em.select(ntag))
        renv = {op.right.params[0]: scrut.right}
        for v in self._sub_env([op.right], env):
            renv[v] = self.pack_rep(env[v], ntag)
        rres = self.compile_block(op.right, rctx, renv)

        return self.merge_rep(tag, lres, rres)

    # -- map ----------------------------------------------------------------

    def _compile_map(self, op: nsa.NMap, ctx: Ctx, env: dict[NVar, Rep]) -> Rep:
        src = env[op.src]
        assert isinstance(src, RSeq)
        tpl = first_reg(src.elem)
        if tpl is None:
            raise CompileError("map over a sequence of unit-only elements is outside the fragment")
        child = Ctx(tpl)
        cenv = {op.body.params[0]: src.elem}
        for v in self._sub_env([op.body], env):
            cenv[v] = self.distribute_rep(env[v], src.seg, tpl)
        out = self.compile_block(op.body, child, cenv)
        return RSeq(src.seg, out)

    # -- append -------------------------------------------------------------

    def _compile_append(self, op: nsa.NAppend, ctx: Ctx, env: dict[NVar, Rep]) -> Rep:
        em = self.em
        a, b = env[op.a], env[op.b]
        assert isinstance(a, RSeq) and isinstance(b, RSeq)
        seg = em.arith("+", a.seg, b.seg)
        ext_a, ext_b = first_reg(a.elem), first_reg(b.elem)
        if ext_a is None or ext_b is None:
            return RSeq(seg, a.elem)
        # per-slot interleave: slot i contributes a.seg[i] elements of a then
        # b.seg[i] of b.  Build the 2w-long alternating (a-count, b-count)
        # vector, expand a 1/0 source flag over it and flag-merge the data.
        tpl2 = em.append(ctx.template, ctx.template)
        idx2 = em.enumerate_(tpl2)
        two = self.broadcast_const(2, Ctx(tpl2))
        par = em.arith("mod", idx2, two)
        is_a = em.arith("eq", par, self.zeros_like(par))  # 1 at even positions
        icounts = em.flag_merge(is_a, a.seg, b.seg)
        bound = em.append(ext_a, ext_b)
        cflags = em.bm_route(data=is_a, counts=icounts, bound=bound)
        return RSeq(seg, self.merge_rep(cflags, a.elem, b.elem))

    # -- while: Lemma 7.2 ----------------------------------------------------

    def _compile_while(self, op: nsa.NWhile, ctx: Ctx, env: dict[NVar, Rep]) -> Rep:
        em = self.em
        T = ctx.template
        state0 = env[op.init]
        fvs = self._sub_env([op.pred, op.body], env)
        parts0: list[Rep] = [state0] + [env[v] for v in fvs]

        ones_n = self.ones_like(T)
        n_count = em.length(T)
        # s ~ n^eps via eps = 2^-k repeated integer square roots (run time)
        s_reg = n_count
        for _ in range(self._sqrt_steps):
            s_reg = em.un_arith("sqrt", s_reg)

        # The loop is rotated: the predicate runs once on the initial state
        # here, then right after every step, so an iteration packs the
        # working set once (by live) and merges the state once.
        pres0 = self._compile_pred(op, Ctx(T), state0, parts0[1:], fvs)

        # Loop-carried registers: the working set (state + closure parts, in
        # original element order), its live mask (1 = the predicate last held),
        # the dense live mask over the original n slots, the result
        # accumulator and the stage width m.
        ws = [self.phi_rep(p) for p in parts0]
        live = em.move(pres0.tag)
        dense = em.move(ones_n)
        result = self.phi_rep(state0)
        m_reg = em.move(n_count)

        top = em.new_label("while_top")
        no_flush = em.new_label("while_go")
        exit_l = em.new_label("while_exit")

        em.mark(top)
        # stage check: flush when   #live * n^eps <= m   (stage shrank enough)
        c_reg = em.length(em.select(live))
        cmp = em.arith("le", em.arith("*", c_reg, s_reg), m_reg)
        em.goto_if_empty(no_flush, em.select(cmp))

        # ---- stage boundary: flush finished elements, compact the set ----
        not_live = self.not_mask(live)
        fin_state = self.pack_rep(ws[0], not_live)
        nd_sel = em.select(self.not_mask(dense))
        zeros_nd = em.arith("-", nd_sel, nd_sel)
        fin_dense = em.flag_merge(dense, not_live, zeros_nd)
        keep = self.pack_rep(result, self.not_mask(fin_dense))
        new_result = self.merge_rep(fin_dense, fin_state, keep)
        new_dense = em.flag_merge(dense, live, zeros_nd)
        new_ws = [self.pack_rep(r, live) for r in ws]
        new_live = em.select(live)
        for phi, val in zip(ws, new_ws):
            self.assign_rep(phi, val)
        self.assign_rep(result, new_result)
        em.move(new_live, dst=live)
        em.move(new_dense, dst=dense)
        em.move(c_reg, dst=m_reg)
        em.goto_if_empty(exit_l, em.select(m_reg))

        em.mark(no_flush)
        # ---- one parallel step of the live elements, then their predicate ----
        go = [self.pack_rep(r, live) for r in ws]
        go_ctx = Ctx(em.select(live))
        benv = {op.body.params[0]: go[0]}
        for v, r in zip(fvs, go[1:]):
            benv[v] = r
        stepped = self.compile_block(op.body, go_ctx, benv)
        pres = self._compile_pred(op, go_ctx, stepped, go[1:], fvs)
        # Only the state part changes inside an iteration: the closure parts
        # (ws[1:]) are loop-invariant between compactions, so recombining
        # them would be an identity round-trip of vector work.
        not_live = self.not_mask(live)
        rest = self.pack_rep(ws[0], not_live)
        new_state = self.merge_rep(live, stepped, rest)
        nl_sel = em.select(not_live)
        zeros_nl = em.arith("-", nl_sel, nl_sel)
        new_live = em.flag_merge(live, pres.tag, zeros_nl)
        self.assign_rep(ws[0], new_state)
        em.move(new_live, dst=live)
        em.goto(top)

        em.mark(exit_l)
        return result

    def _compile_pred(
        self, op: nsa.NWhile, ctx: Ctx, state: Rep, closure: Sequence[Rep], fvs: list[NVar]
    ) -> RSum:
        """``op.pred`` on ``state`` under ``ctx``; its tag is 1 where the loop goes on."""
        env = {op.pred.params[0]: state}
        env.update(zip(fvs, closure))
        pres = self.compile_block(op.pred, ctx, env)
        assert isinstance(pres, RSum)
        return pres
