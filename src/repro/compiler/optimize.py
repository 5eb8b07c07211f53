"""Optimizing passes over the NSA IR and over emitted BVRAM code.

The PR 2 compiler emits *naive* code: every intermediate value gets a fresh
binding, every constant is re-broadcast, and every segment descriptor is
re-derived at each use.  This module closes that gap with two groups of
passes, both of which are **refinements** in the cost model: an optimized
program computes the same S-object as the naive one while its measured
machine costs ``T'`` and ``W'`` can only shrink, never grow (checked by
``tests/test_optimize.py`` and the differential battery).

NSA-level passes (:func:`optimize_block`, run at ``opt_level >= 1``):

* **constant folding** — ``NBin``/``NUn`` over known constants evaluate at
  compile time, with exactly the machine's arithmetic (monus subtraction,
  floor division, the ``>> 63`` cutoff); a fold is skipped whenever it could
  hide a runtime trap (division by a zero constant, an int64 overflow);
* **copy propagation / algebraic simplification** — ``pi_i(pair(a, b))``,
  ``get([x])``, ``flatten([s])``, ``x + 0``, ``x * 1``, ``x >> 0`` and
  friends forward their operand instead of binding a new value;
* **common-subexpression elimination** — pure block-free operations are
  value-numbered (commutative operators canonicalised); the table is
  *inherited* into ``map``/``while``/``case`` sub-blocks, so an operation on
  loop-invariant values is aliased to the enclosing scope's binding — the
  flattener then captures one closure slot instead of re-running the
  operation per element per iteration;
* **dead-code elimination** — bindings whose value is never used are
  dropped, *unless* they are semantically partial: ``Omega``, ``get``,
  ``zip``, ``split``, division/modulo, and any ``while`` (non-termination)
  must keep their trap behaviour.  Overflow checks are resource faults of
  the finite-register machine, not of NSC semantics, so an optimization may
  remove one (never add one).

Emitted-code passes (run at ``opt_level >= 2``, together with the emitter's
value numbering in :mod:`repro.compiler.codegen`):

* **dead-register elimination** (:func:`eliminate_dead_instructions`) —
  instructions whose destination register is never read (and is not a
  program output) are deleted, to a fixpoint, with jump labels re-indexed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import replace
from itertools import accumulate, chain, compress
from operator import not_

from .nsa import (
    BLOCK_FIELDS as _BLOCK_FIELDS,
    OPERAND_FIELDS as _OPERAND_FIELDS,
    Bind,
    Block,
    NBin,
    NConst,
    NEmpty,
    NEq,
    NError,
    NFlatten,
    NGet,
    NLength,
    NOp,
    NPair,
    NProj,
    NSingle,
    NSplit,
    NUn,
    NVar,
    NWhile,
    NZip,
    block_free_vars,
)

#: Largest value a BVRAM register can hold (int64 naturals).
_REG_LIMIT = 2**63

#: NBin operators whose operand order does not matter (for CSE keys).
_COMMUTATIVE = frozenset({"+", "*", "min", "max"})


# ---------------------------------------------------------------------------
# Constant folding (exactly the machine arithmetic of repro.bvram.machine)
# ---------------------------------------------------------------------------


def _fold_bin(op: str, a: int, b: int) -> int | None:
    """Fold ``a op b`` or return None when the fold is unsafe (trap/overflow)."""
    if op == "+":
        c = a + b
        return c if c < _REG_LIMIT else None
    if op == "-":
        return a - b if a >= b else 0
    if op == "*":
        c = a * b
        return c if c < _REG_LIMIT else None
    if op == "/":
        return a // b if b != 0 else None
    if op == "mod":
        return a % b if b != 0 else None
    if op == ">>":
        # the machine caps shifts: floor(a / 2**b) = 0 once b >= 63
        return 0 if b >= 63 else a >> b
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    if op == "eq":
        return int(a == b)
    if op == "le":
        return int(a <= b)
    if op == "lt":
        return int(a < b)
    return None


def _fold_un(op: str, a: int) -> int | None:
    if op == "log2":
        return a.bit_length() - 1 if a > 0 else 0
    if op == "sqrt":
        import math

        return math.isqrt(a)
    return None


# ---------------------------------------------------------------------------
# Structural helpers (field tables live in nsa.py next to the op classes)
# ---------------------------------------------------------------------------


def _substitute(op: NOp, subst: dict[int, NVar]) -> NOp:
    fields = _OPERAND_FIELDS.get(type(op))
    if not fields:
        return op
    updates = {}
    for f in fields:
        v = getattr(op, f)
        w = subst.get(v.id)
        if w is not None and w.id != v.id:
            updates[f] = w
    return replace(op, **updates) if updates else op


def _rebuild_blocks(op: NOp, blocks: tuple[Block, ...]) -> NOp:
    fields = _BLOCK_FIELDS[type(op)]
    return replace(op, **dict(zip(fields, blocks)))


def _op_key(op: NOp, dst_type) -> tuple | None:
    """A value-numbering key for pure, block-free ops (None = not CSE-able).

    The destination *type* is part of every key: structurally equal ops can
    differ in result type (``NEmpty`` of ``[N]`` vs ``[[N]]``, ``NInl`` into
    different sums), and their flattened representations have different
    register shapes, so they must never merge.
    """
    cls = type(op)
    if cls in _BLOCK_FIELDS or isinstance(op, NError):
        return None
    t = str(dst_type)
    if isinstance(op, NConst):
        return ("NConst", op.value, t)
    if isinstance(op, NBin) and op.op in _COMMUTATIVE:
        return ("NBin", op.op, t) + tuple(sorted((op.a.id, op.b.id)))
    if isinstance(op, NEq):
        return ("NEq", t) + tuple(sorted((op.a.id, op.b.id)))
    key: list = [cls.__name__, t]
    for f in _OPERAND_FIELDS.get(cls, ()):
        key.append(getattr(op, f).id)
    for f in ("op", "index"):
        if hasattr(op, f):
            key.append(getattr(op, f))
    return tuple(key)


def _semantically_partial(op: NOp) -> bool:
    """True when removing the op (if dead) would change NSC semantics.

    ``while`` may diverge; ``Omega``, ``get``, ``zip``, ``split`` and
    division/modulo may raise in the *interpreter* too, so their traps are
    part of the program's meaning.  Pure overflow faults are not counted.
    """
    if isinstance(op, (NError, NGet, NZip, NSplit, NWhile)):
        return True
    if isinstance(op, NBin) and op.op in ("/", "mod"):
        return True
    for b in op.blocks():
        if _block_partial(b):
            return True
    return False


def _block_partial(block: Block) -> bool:
    return any(_semantically_partial(bind.op) for bind in block.binds)


# ---------------------------------------------------------------------------
# The forward rewrite pass: fold + copy-propagate + simplify + CSE
# ---------------------------------------------------------------------------


def _simplify(
    op: NOp, consts: dict[int, int], defs: dict[int, NOp]
) -> NOp | NVar:
    """One local rewrite step: returns a replacement op, or an NVar alias."""
    if isinstance(op, NBin):
        ca, cb = consts.get(op.a.id), consts.get(op.b.id)
        if ca is not None and cb is not None:
            folded = _fold_bin(op.op, ca, cb)
            if folded is not None and folded < _REG_LIMIT:
                return NConst(folded)
        # algebraic identities against a constant operand
        if op.op == "+":
            if cb == 0:
                return op.a
            if ca == 0:
                return op.b
        elif op.op == "-":
            if cb == 0:
                return op.a
            if ca == 0:
                return NConst(0)
        elif op.op == "*":
            if cb == 1:
                return op.a
            if ca == 1:
                return op.b
            if cb == 0 or ca == 0:
                return NConst(0)
        elif op.op == "/":
            if cb == 1:
                return op.a
        elif op.op == "mod":
            if cb == 1:
                return NConst(0)
        elif op.op == ">>":
            if cb == 0:
                return op.a
        elif op.op in ("min", "max"):
            if op.a.id == op.b.id:
                return op.a
        return op
    if isinstance(op, NUn):
        ca = consts.get(op.a.id)
        if ca is not None:
            folded = _fold_un(op.op, ca)
            if folded is not None and folded < _REG_LIMIT:
                return NConst(folded)
        return op
    if isinstance(op, NProj):
        d = defs.get(op.a.id)
        if isinstance(d, NPair):
            return d.a if op.index == 1 else d.b
        return op
    if isinstance(op, NGet):
        d = defs.get(op.a.id)
        if isinstance(d, NSingle):
            # get([x]) = x, provably total: the trap cannot fire
            return d.a
        return op
    if isinstance(op, NFlatten):
        d = defs.get(op.a.id)
        if isinstance(d, NSingle):
            # flatten([s]) = s for a sequence-typed s
            return d.a
        return op
    if isinstance(op, NLength):
        d = defs.get(op.a.id)
        if isinstance(d, NSingle):
            return NConst(1)
        if isinstance(d, NEmpty):
            return NConst(0)
        return op
    return op


def _rewrite_block(
    block: Block,
    subst: dict[int, NVar],
    consts: dict[int, int],
    defs: dict[int, NOp],
    vn: dict[tuple, NVar],
) -> Block:
    binds_out: list[Bind] = []
    for bind in block.binds:
        op = _substitute(bind.op, subst)
        subs = op.blocks()
        if subs:
            # Sub-blocks inherit the substitution (references to outer binds
            # dropped by CSE must still resolve) and the constant table
            # (folding an inner op to a local NConst removes a free
            # variable).  They do NOT inherit ``vn`` or ``defs``: aliasing
            # an inner op to an *outer* binding would add a free variable to
            # the block, and the flattener pays for every free variable per
            # element (``map`` broadcast) or per iteration (the Lemma 7.2
            # working set re-packs each closure part every step) — the
            # "optimization" could then grow T'/W' instead of shrinking it.
            rewritten = tuple(
                _rewrite_block(b, dict(subst), dict(consts), {}, {}) for b in subs
            )
            op = _rebuild_blocks(op, rewritten)
            defs[bind.dst.id] = op
            binds_out.append(Bind(bind.dst, op))
            continue
        result = _simplify(op, consts, defs)
        if isinstance(result, NVar):
            subst[bind.dst.id] = result
            continue
        op = result
        key = _op_key(op, bind.dst.type)
        if key is not None:
            hit = vn.get(key)
            if hit is not None:
                subst[bind.dst.id] = hit
                continue
            vn[key] = bind.dst
        if isinstance(op, NConst):
            consts[bind.dst.id] = op.value
        defs[bind.dst.id] = op
        binds_out.append(Bind(bind.dst, op))
    result_var = subst.get(block.result.id, block.result)
    return Block(block.params, tuple(binds_out), result_var)


# ---------------------------------------------------------------------------
# Dead-code elimination (trap-preserving)
# ---------------------------------------------------------------------------


def _dce_block(block: Block) -> Block:
    needed: set[int] = {block.result.id}
    kept: list[Bind] = []
    for bind in reversed(block.binds):
        op = bind.op
        subs = op.blocks()
        if subs:
            op = _rebuild_blocks(op, tuple(_dce_block(b) for b in subs))
        if bind.dst.id in needed or _semantically_partial(op):
            kept.append(Bind(bind.dst, op))
            for v in op.operands():
                needed.add(v.id)
            for b in op.blocks():
                for v in block_free_vars(b):
                    needed.add(v.id)
    return Block(block.params, tuple(reversed(kept)), block.result)


# ---------------------------------------------------------------------------
# Pass driver
# ---------------------------------------------------------------------------


def fold_and_cse(block: Block) -> Block:
    """One forward rewrite pass (folding, copy propagation, CSE)."""
    return _rewrite_block(block, {}, {}, {}, {})


def dead_code_elimination(block: Block) -> Block:
    """One backward DCE pass (keeps semantically partial bindings)."""
    return _dce_block(block)


def optimize_block(block: Block, max_rounds: int = 4) -> Block:
    """Run the NSA pass pipeline to a fixpoint (at most ``max_rounds``)."""
    for _ in range(max_rounds):
        new = dead_code_elimination(fold_and_cse(block))
        if new == block:
            break
        block = new
    return block


# ---------------------------------------------------------------------------
# IR pretty printer (golden-snapshot tests)
# ---------------------------------------------------------------------------


def format_block(block: Block) -> str:
    """Render a block with stable, order-of-appearance variable numbering."""
    names: dict[int, str] = {}

    def name(v: NVar) -> str:
        if v.id not in names:
            names[v.id] = f"%{len(names)}"
        return names[v.id]

    def fmt_op(op: NOp, indent: str) -> str:
        cls = type(op)
        parts = [cls.__name__[1:].lower()]
        for f in ("op", "index", "value"):
            if hasattr(op, f):
                parts.append(str(getattr(op, f)))
        for f in _OPERAND_FIELDS.get(cls, ()):
            parts.append(name(getattr(op, f)))
        line = " ".join(parts)
        for label, sub in zip(("{", "{", "{"), op.blocks()):
            line += " " + label + "\n" + fmt_block(sub, indent + "  ") + "\n" + indent + "}"
        return line

    def fmt_block(b: Block, indent: str) -> str:
        header = indent + "block(" + ", ".join(f"{name(p)}:{p.type}" for p in b.params) + "):"
        lines = [header]
        for bind in b.binds:
            lines.append(f"{indent}  {name(bind.dst)} = {fmt_op(bind.op, indent + '  ')}")
        lines.append(f"{indent}  -> {name(b.result)}")
        return "\n".join(lines)

    return fmt_block(block, "")


# ---------------------------------------------------------------------------
# Emitted-code dead-register elimination
# ---------------------------------------------------------------------------


def eliminate_dead_instructions(
    instructions: list,
    labels: dict[str, int],
    n_outputs: int,
) -> tuple[list, dict[str, int]]:
    """Drop instructions whose destination is never read, to a fixpoint.

    Output registers ``0 .. n_outputs-1`` are live at program end.  Only
    side-effect-free instructions are candidates; division/modulo keep their
    division-by-zero trap, and control flow (``goto``/``trap``/``halt``)
    writes no registers so it is never touched.  Jump labels are re-indexed
    to account for removed instructions.

    One pass, linear in the program: every register carries the number of
    reads left in the program, and removing a dead instruction releases its
    reads — a register whose count reaches zero makes each of its candidate
    writers dead in turn (a worklist, so a dead chain of any length goes in
    one call).  Deadness only grows as instructions go, so this reaches the
    same least fixpoint as deleting every dead instruction round by round.
    """
    from ..bvram import isa

    reads = [instr.registers_read() for instr in instructions]
    uses = Counter(chain.from_iterable(reads))
    uses.update(range(n_outputs))
    writers: defaultdict[int, list[int]] = defaultdict(list)  # register -> live candidates
    work: list[int] = []
    for i, instr in enumerate(instructions):
        written = instr.registers_written()
        if not written or (type(instr) is isa.Arith and instr.op in ("/", "mod")):
            continue  # control flow, or the semantic trap of division by zero
        (dst,) = written
        if uses[dst]:
            writers[dst].append(i)
        else:
            work.append(i)
    if not work:
        return instructions, labels

    dead = [False] * len(instructions)
    while work:
        i = work.pop()
        dead[i] = True
        for r in reads[i]:
            uses[r] -= 1
            if not uses[r]:
                work.extend(writers.pop(r, ()))
    kept = list(compress(instructions, map(not_, dead)))
    # a label points at an instruction index: it moves down by the removals before it
    kept_before = list(accumulate(map(not_, dead), initial=0))
    return kept, {name: kept_before[idx] for name, idx in labels.items()}
