"""Concrete instances of the Section 4 recursion schemata.

The paper motivates map-recursion with three schemata::

    fun g(x) = if p(x) then s(x) else c(g(d1(x)), g(d2(x)))
    fun h(x) = if p(x) then s(x) else c(h(d(x)))
    fun k(x) = if p(x) then s(x) else
               if p'(x) then c (k(d1(x)), k(d2(x)))
               else          c'(k(d1'(x)), k(d2'(x)), k(d3'(x)))

``g`` is binary divide and conquer, ``h`` is tail recursion, and ``k``
divides into *either two or three* sub-problems — the paper's example of a
program that is **not contained** in Blelloch's sense yet is map-recursive.

Each schema instance below is packaged as a
:class:`repro.maprec.schema.MapRecursiveDef`, so it can be (a) run directly as
a recursive definition, (b) checked by the syntactic Definition 4.1 test and
(c) translated to pure NSC by Theorem 4.2 (experiment E3).
"""

from __future__ import annotations

from ..maprec.schema import MapRecursiveDef
from ..nsc import ast as A
from ..nsc import builder as B
from ..nsc import lib
from ..nsc.types import NAT, SeqType, prod, seq

NSEQ = seq(NAT)


def _length_at_most(k: int) -> A.Lambda:
    x = B.gensym("x")
    return B.lam(x, NSEQ, B.le(B.length_(B.v(x)), k))


def _sum_base() -> A.Lambda:
    """``[N] -> N``: 0 for the empty sequence, the single element otherwise."""
    x = B.gensym("x")
    return B.lam(
        x, NSEQ, B.if_(B.eq(B.length_(B.v(x)), 0), B.c(0), B.get_(B.v(x)))
    )


def _halves_divide() -> A.Lambda:
    """``[N] -> [[N]]``: split into two halves (balanced ``g`` schema)."""
    x = B.gensym("x")
    n = B.gensym("n")
    return B.lam(
        x,
        NSEQ,
        B.let(
            n,
            B.length_(B.v(x)),
            B.split_(
                B.v(x),
                B.append(
                    B.single(B.sub(B.v(n), B.div(B.v(n), 2))),
                    B.single(B.div(B.v(n), 2)),
                ),
            ),
        ),
    )


def _head_rest_divide() -> A.Lambda:
    """``[N] -> [[N]]``: peel one element — a maximally unbalanced tree."""
    x = B.gensym("x")
    return B.lam(
        x,
        NSEQ,
        B.append(
            B.single(B.single(B.app(lib.first(NAT), B.v(x)))),
            B.single(B.app(lib.tail(NAT), B.v(x))),
        ),
    )


def _sum_combine() -> A.Lambda:
    """``[N] x [N] -> N``: add up the child results (any number of them)."""
    p = B.gensym("p")
    return B.lam(p, prod(NSEQ, NSEQ), B.app(lib.reduce_add(), B.snd(B.v(p))))


def _sum_combine_simple() -> A.Lambda:
    """``[N] -> N``: the input-free combine (the paper's pure ``c(r1, r2)`` form)."""
    return lib.reduce_add()


def balanced_sum() -> MapRecursiveDef:
    """``g`` schema, balanced: sum a sequence by recursive halving.

    Divide-and-conquer tree is perfectly balanced, so Theorem 4.2 predicts
    ``W' = O(W)`` for the translation.
    """
    return MapRecursiveDef(
        name="balanced_sum",
        dom=NSEQ,
        cod=NAT,
        pred=_length_at_most(1),
        base=_sum_base(),
        divide=_halves_divide(),
        combine=_sum_combine(),
        combine_simple=_sum_combine_simple(),
    )


def skewed_sum() -> MapRecursiveDef:
    """``g`` schema, adversarially unbalanced: peel one element per level.

    ``v`` (levels containing leaves) equals the input length, so the naive
    translation pays the full ``O(v * W)`` overhead — the case the staged
    buffers of Theorem 4.2 are designed for.
    """
    return MapRecursiveDef(
        name="skewed_sum",
        dom=NSEQ,
        cod=NAT,
        pred=_length_at_most(1),
        base=_sum_base(),
        divide=_head_rest_divide(),
        combine=_sum_combine(),
        combine_simple=_sum_combine_simple(),
    )


def halving_tail() -> MapRecursiveDef:
    """``h`` schema (tail recursion): repeatedly halve a number down to 1.

    ``f(n) = if n <= 1 then n else f(n / 2)`` — the sub-problem list has
    length one, which is exactly how the paper converts tail recursion.
    """
    n = B.gensym("n")
    pred = B.lam(n, NAT, B.le(B.v(n), 1))
    bn = B.gensym("n")
    base = B.lam(bn, NAT, B.v(bn))
    dn = B.gensym("n")
    divide = B.lam(dn, NAT, B.single(B.div(B.v(dn), 2)))
    cp = B.gensym("p")
    combine = B.lam(cp, prod(NAT, seq(NAT)), B.get_(B.snd(B.v(cp))))
    cg = B.gensym("rs")
    combine_simple = B.lam(cg, seq(NAT), B.get_(B.v(cg)))
    return MapRecursiveDef(
        name="halving_tail",
        dom=NAT,
        cod=NAT,
        pred=pred,
        base=base,
        divide=divide,
        combine=combine,
        combine_simple=combine_simple,
    )


def countdown() -> MapRecursiveDef:
    """``h`` schema at full depth: ``f(n) = if n = 0 then n else f(n - 1)``.

    The recursion tree is a path of length ``n`` — the canonical deep
    workload.  On the seed's recursive evaluator this crashed for ``n`` in the
    low hundreds (AST depth times recursion depth exhausted the C stack); the
    iterative engine runs it at ``n = 10^5`` under the default recursion
    limit (benchmark E8).
    """
    n = B.gensym("n")
    pred = B.lam(n, NAT, B.eq(B.v(n), 0))
    bn = B.gensym("n")
    base = B.lam(bn, NAT, B.v(bn))
    dn = B.gensym("n")
    divide = B.lam(dn, NAT, B.single(B.sub(B.v(dn), 1)))
    cp = B.gensym("p")
    combine = B.lam(cp, prod(NAT, seq(NAT)), B.get_(B.snd(B.v(cp))))
    cg = B.gensym("rs")
    combine_simple = B.lam(cg, seq(NAT), B.get_(B.v(cg)))
    return MapRecursiveDef(
        name="countdown",
        dom=NAT,
        cod=NAT,
        pred=pred,
        base=base,
        divide=divide,
        combine=combine,
        combine_simple=combine_simple,
    )


def two_or_three_way_sum() -> MapRecursiveDef:
    """``k`` schema: sum a sequence splitting into 3 parts when the length is
    divisible by 3, and into 2 parts otherwise.

    The number of sub-problems depends on the *data*, so the definition is not
    contained in the sense of [Ble90]; it is nevertheless map-recursive and
    translates by Theorem 4.2.
    """
    x = B.gensym("x")
    n = B.gensym("n")
    third = B.gensym("t")
    three_way = B.let(
        third,
        B.div(B.v(n), 3),
        B.split_(
            B.v(x),
            B.append(
                B.append(B.single(B.v(third)), B.single(B.v(third))),
                B.single(B.sub(B.v(n), B.mul(B.v(third), 2))),
            ),
        ),
    )
    two_way = B.split_(
        B.v(x),
        B.append(
            B.single(B.sub(B.v(n), B.div(B.v(n), 2))),
            B.single(B.div(B.v(n), 2)),
        ),
    )
    divide = B.lam(
        x,
        NSEQ,
        B.let(
            n,
            B.length_(B.v(x)),
            B.if_(B.and_(B.eq(B.mod(B.v(n), 3), 0), B.ge(B.v(n), 3)), three_way, two_way),
        ),
    )
    return MapRecursiveDef(
        name="two_or_three_way_sum",
        dom=NSEQ,
        cod=NAT,
        pred=_length_at_most(1),
        base=_sum_base(),
        divide=divide,
        combine=_sum_combine(),
        combine_simple=_sum_combine_simple(),
    )


ALL_SCHEMATA = {
    "balanced_sum": balanced_sum,
    "skewed_sum": skewed_sum,
    "halving_tail": halving_tail,
    "countdown": countdown,
    "two_or_three_way_sum": two_or_three_way_sum,
}
