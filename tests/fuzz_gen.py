"""Seeded random generator of well-typed NSC programs (the fuzz corpus).

Every program the generator emits is

* **well-typed by construction** — generation is type-directed, so
  ``infer_function``/``compile_nsc`` must accept it (a ``CompileError`` in
  the battery is itself a bug: either the generator left the supported
  fragment or the fragment shrank);
* **terminating** — ``while`` loops come only from templates with a
  monotone progress argument (strictly decreasing state with a ``> t``
  predicate, strictly increasing state with a ``< bound`` predicate, or
  Collatz from inputs small enough to be tabulated);
* **int64-safe on the success path** — the interpreter computes with
  unbounded naturals while the machine traps on int64 overflow, so a value
  divergence there would be a *model* difference, not a bug.  Every ``*``
  is therefore emitted modulo a small constant and all other growth is
  bounded (inputs < 1000, constants <= 20, additive chains of bounded
  depth), keeping every intermediate far below ``2**63``.

Traps, on the other hand, are deliberately generated: division/modulo by a
possibly-zero term, ``get`` of a possibly-non-singleton, ``zip`` of
possibly-different lengths and ``split`` with a possibly-mismatched count
vector each appear with small probability.  The battery asserts **trap
equality** (every engine traps on exactly the same inputs), which is how the
compiler's trap-guard emission stays honest under random programs.

The per-case ``random.Random(seed)`` stream is the only source of
randomness, so a failing case is reproduced by its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import random

from repro.nsc import ast as A
from repro.nsc import builder as B
from repro.nsc import lib
from repro.nsc.types import BOOL, NAT, ProdType, SeqType, Type

NSEQ = SeqType(NAT)
NPAIR = ProdType(NAT, NAT)

#: moduli used to clamp every generated multiplication
_MUL_MODS = (97, 251, 1009, 65537, (1 << 20) + 7)

#: input domains the generator draws from
DOMAINS = (NAT, NSEQ, NPAIR, ProdType(NSEQ, NAT))

#: result types the generator targets
CODOMAINS = (NAT, NSEQ, BOOL, NPAIR)


@dataclass(frozen=True)
class FuzzCase:
    """One generated program plus a small input set (plain Python data)."""

    seed: int
    fn: A.Function
    dom: Type
    inputs: tuple[object, ...]


class _Gen:
    """Type-directed term generator over one seeded rng."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    # -- helpers -------------------------------------------------------------

    def _maybe(self, p: float) -> bool:
        return self.rng.random() < p

    def _vars(self, scope: list[tuple[A.Term, Type]], t: Type) -> list[A.Term]:
        return [term for term, vt in scope if vt == t]

    # -- N -------------------------------------------------------------------

    def gen_nat(self, depth: int, scope: list) -> A.Term:
        rng = self.rng
        nat_vars = self._vars(scope, NAT)
        if depth <= 0:
            if nat_vars and self._maybe(0.6):
                return rng.choice(nat_vars)
            return B.c(rng.randint(0, 20))
        pick = rng.random()
        if pick < 0.14 and nat_vars:
            return rng.choice(nat_vars)
        if pick < 0.24:
            return B.c(rng.randint(0, 20))
        if pick < 0.52:
            op = rng.choice(["+", "-", "min", "max", "*", "/", "mod", ">>"])
            a = self.gen_nat(depth - 1, scope)
            b = self.gen_nat(depth - 1, scope)
            if op == "*":
                # clamp: the interpreter has bignums, the machine has int64
                return B.mod(B.mul(a, b), B.c(rng.choice(_MUL_MODS)))
            if op in ("/", "mod") and not self._maybe(0.25):
                # usually guard the divisor away from zero; sometimes leave
                # the trap in on purpose (trap-equality coverage)
                b = B.add(b, B.c(1))
            return A.BinOp(op, a, b)
        if pick < 0.62:
            return B.if_(
                self.gen_bool(depth - 1, scope),
                self.gen_nat(depth - 1, scope),
                self.gen_nat(depth - 1, scope),
            )
        if pick < 0.72:
            return B.length_(self.gen_seq(depth - 1, scope))
        if pick < 0.80:
            return B.app(lib.reduce_add(), self.gen_seq(depth - 1, scope))
        if pick < 0.88:
            # while over a N state, from a terminating template.  The init is
            # clamped below 1000 so even the subtract-by-k template iterates
            # a bounded number of times (an unclamped init can reach ~2**24
            # through mod-wrapped products, and millions of iterations would
            # blow the machine's max_steps while the interpreter grinds on —
            # a false divergence between the cost models, not a bug).
            init = B.mod(self.gen_nat(depth - 1, scope), B.c(1000))
            return B.app(self.gen_while_nat(depth - 1, scope), init)
        if pick < 0.93:
            if self._maybe(0.3):
                # risky get: traps unless the sequence is a singleton
                return B.get_(self.gen_seq(depth - 1, scope))
            return B.get_(B.single(self.gen_nat(depth - 1, scope)))
        name = B.gensym("n")
        bound = self.gen_nat(depth - 1, scope)
        body = self.gen_nat(depth - 1, scope + [(B.v(name), NAT)])
        return B.let(name, bound, body)

    # -- B -------------------------------------------------------------------

    def gen_bool(self, depth: int, scope: list) -> A.Term:
        rng = self.rng
        if depth <= 0:
            return B.true() if self._maybe(0.5) else B.false()
        pick = rng.random()
        if pick < 0.55:
            cmp = rng.choice([B.eq, B.le, B.lt, B.ge, B.gt])
            return cmp(self.gen_nat(depth - 1, scope), self.gen_nat(depth - 1, scope))
        if pick < 0.70:
            comb = rng.choice([B.and_, B.or_])
            return comb(self.gen_bool(depth - 1, scope), self.gen_bool(depth - 1, scope))
        if pick < 0.80:
            return B.not_(self.gen_bool(depth - 1, scope))
        if pick < 0.90:
            return B.eq(self.gen_bool(depth - 1, scope), self.gen_bool(depth - 1, scope))
        return B.is_zero(self.gen_nat(depth - 1, scope))

    # -- (N, N) --------------------------------------------------------------

    def gen_pair(self, depth: int, scope: list) -> A.Term:
        pair_vars = self._vars(scope, NPAIR)
        if pair_vars and self._maybe(0.25):
            return self.rng.choice(pair_vars)
        return B.pair(self.gen_nat(depth - 1, scope), self.gen_nat(depth - 1, scope))

    # -- [N] -----------------------------------------------------------------

    def gen_seq(self, depth: int, scope: list) -> A.Term:
        rng = self.rng
        seq_vars = self._vars(scope, NSEQ)
        if depth <= 0:
            if seq_vars and self._maybe(0.6):
                return rng.choice(seq_vars)
            return B.nat_seq([rng.randint(0, 20) for _ in range(rng.randint(0, 4))])
        pick = rng.random()
        if pick < 0.14 and seq_vars:
            return rng.choice(seq_vars)
        if pick < 0.22:
            return B.nat_seq([rng.randint(0, 20) for _ in range(rng.randint(0, 5))])
        if pick < 0.27:
            return B.single(self.gen_nat(depth - 1, scope))
        if pick < 0.34:
            return B.append(self.gen_seq(depth - 1, scope), self.gen_seq(depth - 1, scope))
        if pick < 0.41:
            return B.enumerate_(self.gen_seq(depth - 1, scope))
        if pick < 0.58:
            return self.gen_map(depth, scope)
        if pick < 0.68:
            # filter: case under map, the packed sub-context path
            z = B.gensym("z")
            pred = B.lam(z, NAT, self.gen_bool(depth - 1, self._map_scope(scope) + [(B.v(z), NAT)]))
            return B.app(lib.filter_fn(pred, NAT), self.gen_seq(depth - 1, scope))
        if pick < 0.78:
            return self.gen_zip_add(depth, scope)
        if pick < 0.88:
            return self.gen_split_flatten(depth, scope)
        # while whose state is the whole sequence: drop elements until short
        s = B.gensym("s")
        k = rng.randint(1, 3)
        pred = B.lam(s, NSEQ, B.gt(B.length_(B.v(s)), B.c(k)))
        body = B.lam(s, NSEQ, B.app(lib.tail(NAT), B.v(s)))
        return B.app(B.while_(pred, body), self.gen_seq(depth - 1, scope))

    def _map_scope(self, scope: list) -> list:
        """The closure a generated map body may capture.

        Scalar (N) bindings only: nesting-polymorphic closures over
        *sequences* are the flattener's replication path, which the curated
        difftest suite covers; keeping random map bodies scalar-closed keeps
        every generated program inside the fragment by construction.
        """
        return [(term, t) for term, t in scope if t == NAT]

    def gen_map(self, depth: int, scope: list) -> A.Term:
        x = B.gensym("x")
        if self._maybe(0.3):
            # map(while(...)): the Lemma 7.2 staged path.  Same iteration
            # bound as the root-level while: clamp every element below 1000
            # before it becomes a loop state.
            m = B.gensym("m")
            clamp = B.map_(B.lam(m, NAT, B.mod(B.v(m), B.c(1000))))
            fn: A.Function = B.map_(self.gen_while_nat(depth - 1, scope))
            return B.app(fn, B.app(clamp, self.gen_seq(depth - 1, scope)))
        body = self.gen_nat(depth - 1, self._map_scope(scope) + [(B.v(x), NAT)])
        fn = B.map_(B.lam(x, NAT, body))
        return B.app(fn, self.gen_seq(depth - 1, scope))

    def gen_zip_add(self, depth: int, scope: list) -> A.Term:
        p = B.gensym("p")
        combine = B.map_(B.lam(p, NPAIR, B.add(B.fst(B.v(p)), B.snd(B.v(p)))))
        if self._maybe(0.25):
            # risky: independent sequences, traps when lengths differ
            left = self.gen_seq(depth - 1, scope)
            right = self.gen_seq(depth - 1, scope)
            return B.app(combine, B.zip_(left, right))
        # safe: zip a let-bound sequence with itself
        s = B.gensym("zs")
        bound = self.gen_seq(depth - 1, scope)
        return B.let(s, bound, B.app(combine, B.zip_(B.v(s), B.v(s))))

    def gen_split_flatten(self, depth: int, scope: list) -> A.Term:
        data = self.gen_seq(depth - 1, scope)
        if self._maybe(0.25):
            # risky: literal counts, traps unless they happen to sum right
            counts = B.nat_seq(
                [self.rng.randint(0, 3) for _ in range(self.rng.randint(0, 3))]
            )
            return B.flatten_(B.split_(data, counts))
        # safe: one segment holding the whole sequence
        s = B.gensym("ds")
        return B.let(
            s, data, B.flatten_(B.split_(B.v(s), B.single(B.length_(B.v(s)))))
        )

    # -- while templates -----------------------------------------------------

    def gen_while_nat(self, depth: int, scope: list) -> A.WhileF:
        """A ``while`` over a N state with a termination argument built in."""
        rng = self.rng
        x = B.gensym("w")
        kind = rng.randrange(3)
        if kind == 0:  # strictly decreasing
            t = rng.randint(0, 3)
            pred = B.lam(x, NAT, B.gt(B.v(x), B.c(t)))
            step = rng.choice(
                [
                    lambda v: B.div(v, B.c(2)),
                    lambda v: B.rshift(v, B.c(1)),
                    lambda v: B.sub(v, B.c(rng.randint(1, 3))),
                ]
            )
            body = B.lam(x, NAT, step(B.v(x)))
        elif kind == 1:  # strictly increasing toward a bound
            bound = rng.randint(10, 300)
            pred = B.lam(x, NAT, B.lt(B.v(x), B.c(bound)))
            if self._maybe(0.5):
                body = B.lam(x, NAT, B.add(B.v(x), B.c(rng.randint(1, 7))))
            else:
                body = B.lam(x, NAT, B.add(B.mul(B.v(x), B.c(2)), B.c(1)))
        else:  # Collatz (inputs are < 1000, trajectories are bounded)
            pred = B.lam(x, NAT, B.gt(B.v(x), B.c(1)))
            body = B.lam(
                x,
                NAT,
                B.if_(
                    B.eq(B.mod(B.v(x), B.c(2)), B.c(0)),
                    B.div(B.v(x), B.c(2)),
                    B.add(B.mul(B.v(x), B.c(3)), B.c(1)),
                ),
            )
        return B.while_(pred, body)

    # -- dispatch ------------------------------------------------------------

    def gen_term(self, t: Type, depth: int, scope: list) -> A.Term:
        if t == NAT:
            return self.gen_nat(depth, scope)
        if t == NSEQ:
            return self.gen_seq(depth, scope)
        if t == BOOL:
            return self.gen_bool(depth, scope)
        if t == NPAIR:
            return self.gen_pair(depth, scope)
        raise AssertionError(f"no generator for type {t}")


def _scope_for(param: str, dom: Type) -> list[tuple[A.Term, Type]]:
    """The bindings visible in a generated body: the parameter, destructured."""
    x = B.v(param)
    if dom == NAT or dom == NSEQ:
        return [(x, dom)]
    if isinstance(dom, ProdType):
        return [
            (x, dom),
            (B.fst(x), dom.left),
            (B.snd(x), dom.right),
        ]
    raise AssertionError(f"no scope rule for domain {dom}")


def _gen_input(rng: random.Random, t: Type, edge: bool) -> object:
    """One plain-Python input of type ``t`` (< 1000 everywhere, see module doc)."""
    if t == NAT:
        return rng.choice([0, 1]) if edge else rng.randint(0, 999)
    if t == NSEQ:
        n = rng.choice([0, 1]) if edge else rng.randint(2, 8)
        return [rng.randint(0, 999) for _ in range(n)]
    if isinstance(t, ProdType):
        return (_gen_input(rng, t.left, edge), _gen_input(rng, t.right, edge))
    raise AssertionError(f"no input generator for type {t}")


def too_deep() -> list:
    """A request nested deeper than the recursion limit: ill-typed for every program."""
    deep: list = []
    for _ in range(5000):
        deep = [deep]
    return deep


def gen_case(seed: int) -> FuzzCase:
    """The deterministic fuzz case for ``seed``."""
    rng = random.Random(seed)
    g = _Gen(rng)
    dom = rng.choice(DOMAINS)
    cod = rng.choice(CODOMAINS)
    depth = rng.randint(2, 4)
    param = B.gensym("arg")
    body = g.gen_term(cod, depth, _scope_for(param, dom))
    fn = B.lam(param, dom, body)
    inputs = tuple(
        _gen_input(rng, dom, edge=(i == 0)) for i in range(3)
    )
    return FuzzCase(seed=seed, fn=fn, dom=dom, inputs=inputs)


def gen_cases(base_seed: int, count: int) -> list[FuzzCase]:
    """``count`` independent cases; case ``i`` is fully determined by
    ``base_seed + i`` (reproduce one failure without replaying the corpus)."""
    return [gen_case(base_seed + i) for i in range(count)]
