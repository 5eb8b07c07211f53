"""Pass 3 of the NSC->BVRAM compiler: instruction emission and marshalling.

The :class:`Emitter` owns the three resources a BVRAM program is made of —
registers, labels and the instruction list — and exposes one tiny wrapper per
ISA instruction.  The flattening pass (:mod:`repro.compiler.flatten`) calls
these wrappers; everything it allocates is a *final* machine register (the
BVRAM allows any fixed register count per program, cf. Section 2's
``r``-register machines), so no separate register-allocation pass is needed
for correctness.

The module also implements the input/output marshalling that connects NSC
S-objects to the flat register encoding of Section 7.1: a value of type ``t``
occupies ``field_count(t)`` registers, laid out in the canonical pre-order

* ``N`` / ``B``-tag first,
* products left then right,
* sums: tag vector, then the left payloads (packed over the tag-true
  positions), then the right payloads,
* sequences: segment descriptor, then the element fields over the
  concatenated data space.

``encode_batch`` / ``decode_batch`` convert between a *batch* of S-objects
and that register image; width 1 gives the single-value convention used by
``CompiledProgram.run``.  Requests arrive as plain Python data far more often
than as S-objects: ``encode_inputs`` is the front door for both, and
``encode_plain`` takes lists, tuples, ints, bools and ``None`` to the same
fields directed by the type alone, without building the S-object tree.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right
from collections import defaultdict
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from ..bvram import isa
from ..nsc.values import (
    UNIT_VALUE,
    Value,
    VInl,
    VInr,
    VNat,
    VPair,
    VSeq,
    VUnit,
    from_python,
    nat_batch,
    nat_seq_batch,
)
from ..nsc.types import BOOL, NatType, ProdType, SeqType, SumType, Type, UnitType
from .nsa import CompileError

#: Version of the whole NSC->BVRAM code generator (all three passes plus the
#: optimizing pipeline).  Part of the compile-cache key salt
#: (:mod:`repro.cache.key`): bump it whenever a pass change can alter the
#: emitted instructions, the register layout or the marshalling convention,
#: so stale on-disk artifacts become misses instead of silently serving
#: old code.
CODEGEN_VERSION = 11


class Emitter:
    """Register allocator + label book-keeping + instruction stream.

    With ``value_number=True`` the emitter performs **local value numbering**
    on the emitted stream: a pure instruction whose exact (opcode, operands)
    was already emitted in the current straight-line region returns the
    existing destination register instead of emitting a duplicate.  This is
    the "segment-descriptor reuse" of the optimizing pipeline — the
    flattener re-derives the same ``ones_like``/``select``/``seg_reduce``
    vectors constantly, and each hit removes one instruction (and its work)
    from every execution of that region.

    Soundness: the table is cleared at every label (join points may be
    reached with different register states, e.g. loop back-edges), and any
    write to an *existing* register (``move`` with an explicit ``dst``)
    evicts the entries that read it as an operand or hold their value in it
    (a register number that is a ``load_const`` *value* is not an operand).
    An index from register to entries makes that eviction cost the entries
    evicted, not the table.  ``move`` itself is never cached — loop phi
    copies must stay distinct.  :meth:`vn_checkpoint` / :meth:`vn_restore`
    let the flattener carry the table across a trap-guard's label, whose
    only non-fallthrough predecessor raises.
    """

    def __init__(self, reserved: int = 0, value_number: bool = False) -> None:
        self.instructions: list[isa.Instruction] = []
        self.labels: dict[str, int] = {}
        self.n_regs = reserved
        self._label_counter = 0
        self._vn: Optional[dict[tuple, int]] = {} if value_number else None
        # the eviction index: register -> keys reading it (append-only lists,
        # so an entry may name a key evicted since: eviction re-checks), and
        # value register -> the key it was emitted for
        self._vn_readers: defaultdict[int, list[tuple]] = defaultdict(list)
        self._vn_key_of: dict[int, tuple] = {}

    # -- registers / labels -------------------------------------------------

    def reg(self) -> int:
        r = self.n_regs
        self.n_regs += 1
        return r

    def new_label(self, stem: str) -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def mark(self, label: str) -> None:
        if label in self.labels:
            raise CompileError(f"duplicate label {label!r}")
        self.labels[label] = len(self.instructions)
        if self._vn is not None:
            self._vn.clear()
            self._vn_readers.clear()
            self._vn_key_of.clear()

    def emit(self, instr: isa.Instruction) -> None:
        self.instructions.append(instr)

    # -- value numbering ----------------------------------------------------

    def vn_checkpoint(self) -> Optional[tuple]:
        """Snapshot the value-numbering table (before emitting a trap guard).

        The index lists are shared, not copied: they only ever grow, and an
        extra entry costs a look-up, never a wrong eviction.
        """
        if self._vn is None:
            return None
        return dict(self._vn), self._vn_readers.copy(), dict(self._vn_key_of)

    def vn_restore(self, snapshot: Optional[tuple]) -> None:
        """Restore a snapshot taken by :meth:`vn_checkpoint`."""
        if self._vn is not None and snapshot is not None:
            self._vn, self._vn_readers, self._vn_key_of = snapshot

    def _invalidate(self, dst: int) -> None:
        """Evict value-numbering facts touching an overwritten register."""
        vn = self._vn
        if vn:
            for key in self._vn_readers.pop(dst, ()):
                vn.pop(key, None)
            key = self._vn_key_of.pop(dst, None)
            if key is not None and vn.get(key) == dst:
                del vn[key]

    def _cached(self, opcode: tuple, operands: tuple[int, ...], instr_factory) -> int:
        """Emit a pure instruction into a fresh register, or reuse a VN hit.

        ``opcode`` is the instruction name with its immediates (``op``,
        ``value``), ``operands`` its operand registers; together the key.
        """
        key = opcode + operands
        if self._vn is not None:
            hit = self._vn.get(key)
            if hit is not None:
                return hit
        dst = self.reg()
        self.emit(instr_factory(dst))
        if self._vn is not None:
            self._vn[key] = dst
            self._vn_key_of[dst] = key
            for r in operands:
                self._vn_readers[r].append(key)
        return dst

    # -- one wrapper per instruction (each returns its destination) ---------

    def move(self, src: int, dst: int | None = None) -> int:
        if dst is None:
            dst = self.reg()
        else:
            self._invalidate(dst)
        self.emit(isa.Move(dst=dst, src=src))
        return dst

    def arith(self, op: str, a: int, b: int) -> int:
        return self._cached(
            ("arith", op), (a, b), lambda dst: isa.Arith(dst=dst, op=op, a=a, b=b)
        )

    def un_arith(self, op: str, src: int) -> int:
        return self._cached(
            ("un_arith", op), (src,), lambda dst: isa.UnArith(dst=dst, op=op, src=src)
        )

    def load_const(self, value: int) -> int:
        if value >= 2**63:  # an NSC literal no register holds; isa.LoadConst refuses it too
            raise CompileError(f"constant {value} exceeds the int64 register width")
        return self._cached(
            ("load_const", value), (), lambda dst: isa.LoadConst(dst=dst, value=value)
        )

    def load_empty(self) -> int:
        return self._cached(("load_empty",), (), lambda dst: isa.LoadEmpty(dst=dst))

    def append(self, a: int, b: int) -> int:
        return self._cached(
            ("append",), (a, b), lambda dst: isa.AppendI(dst=dst, a=a, b=b)
        )

    def length(self, src: int) -> int:
        return self._cached(("length",), (src,), lambda dst: isa.LengthI(dst=dst, src=src))

    def enumerate_(self, src: int) -> int:
        return self._cached(
            ("enumerate",), (src,), lambda dst: isa.EnumerateI(dst=dst, src=src)
        )

    def bm_route(self, data: int, counts: int, bound: int) -> int:
        return self._cached(
            ("bm_route",), (data, counts, bound),
            lambda dst: isa.BmRoute(dst=dst, data=data, counts=counts, bound=bound),
        )

    def sbm_route(self, bound: int, counts: int, data: int, segments: int) -> int:
        return self._cached(
            ("sbm_route",), (bound, counts, data, segments),
            lambda dst: isa.SbmRoute(
                dst=dst, bound=bound, counts=counts, data=data, segments=segments
            ),
        )

    def select(self, src: int) -> int:
        return self._cached(("select",), (src,), lambda dst: isa.Select(dst=dst, src=src))

    def flag_merge(self, flags: int, a: int, b: int) -> int:
        return self._cached(
            ("flag_merge",), (flags, a, b),
            lambda dst: isa.FlagMerge(dst=dst, flags=flags, a=a, b=b),
        )

    def seg_scan(self, op: str, data: int, segments: int) -> int:
        return self._cached(
            ("seg_scan", op), (data, segments),
            lambda dst: isa.SegScan(dst=dst, op=op, data=data, segments=segments),
        )

    def seg_reduce(self, op: str, data: int, segments: int) -> int:
        return self._cached(
            ("seg_reduce", op), (data, segments),
            lambda dst: isa.SegReduce(dst=dst, op=op, data=data, segments=segments),
        )

    def goto(self, label: str) -> None:
        self.emit(isa.Goto(label=label))

    def goto_if_empty(self, label: str, src: int) -> None:
        self.emit(isa.GotoIfEmpty(label=label, src=src))

    def trap(self, message: str) -> None:
        self.emit(isa.Trap(message=message))

    def halt(self) -> None:
        self.emit(isa.Halt())


# ---------------------------------------------------------------------------
# Linear-scan register reuse
# ---------------------------------------------------------------------------


#: the fields of each instruction class that are not registers (``op``, ``value``)
_IMMEDIATE_FIELDS = {
    cls: tuple(f.name for f in dataclasses.fields(cls) if f.name not in regs)
    for cls, regs in isa.REG_FIELDS.items()
}


def _renumber(instr: isa.Instruction, regs: tuple[int, ...]) -> isa.Instruction:
    """``instr`` with its ``REG_FIELDS`` set to ``regs``, in that order."""
    cls = type(instr)
    kwargs = dict(zip(isa.REG_FIELDS[cls], regs))
    for f in _IMMEDIATE_FIELDS[cls]:
        kwargs[f] = getattr(instr, f)
    return cls(**kwargs)


def _loop_spans(
    instructions: list[isa.Instruction], labels: dict[str, int]
) -> tuple[list[int], list[int]]:
    """The loop regions ``[label, backward-jump]``, merged where they overlap.

    Returns the starts and the ends of the merged spans, both ascending; the
    spans are disjoint, so an interval reaching into one never reaches a
    second through it.
    """
    regions = sorted(
        (labels[instr.label], i)
        for i, instr in enumerate(instructions)
        if type(instr) in (isa.Goto, isa.GotoIfEmpty) and labels[instr.label] <= i
    )
    los: list[int] = []
    his: list[int] = []
    for lo, hi in regions:
        if his and lo <= his[-1]:
            his[-1] = max(his[-1], hi)
        else:
            los.append(lo)
            his.append(hi)
    return los, his


def reuse_registers(
    instructions: list[isa.Instruction],
    labels: dict[str, int],
    n_inputs: int,
    n_outputs: int,
) -> tuple[list[isa.Instruction], int]:
    """Renumber registers by linear scan so dead ones are reused.

    The emitter allocates a fresh register per value (SSA-style), which is
    clean but means a quicksort program asks for thousands of registers.
    This pass computes a conservative live interval per register — first to
    last textual occurrence, extended to cover any loop region
    ``[label, backward-jump]`` the interval overlaps — and reassigns numbers
    with a free pool.  Inputs and outputs keep their ABI positions
    (registers ``0..max(n_inputs, n_outputs)-1`` are pinned) and an interval
    never shares a number with one ending at the same instruction, so an
    instruction's destination cannot alias its operands: every register of
    every executed instruction holds exactly the vector it held in the
    unoptimized program, which keeps the ``W'`` accounting bit-identical.

    Linear up to a sort: the overlapping loop regions merge into disjoint
    spans first, so each interval is extended by two bisections; the free
    pool and the active intervals are heaps (the lowest free number is
    always the one taken).
    """
    reads = [instr.registers_read() for instr in instructions]
    writes = [instr.registers_written() for instr in instructions]
    # in order of first occurrence, reads before writes: the tie-break of the sort below
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, (rs, ws) in enumerate(zip(reads, writes)):
        for r in rs + ws:
            if r not in first:
                first[r] = i
            last[r] = i

    # Inputs (live from before the first instruction) and outputs (read
    # after the last) keep their numbers, so only the rest get an interval.
    pinned = max(n_inputs, n_outputs)
    los, his = _loop_spans(instructions, labels)
    intervals: list[tuple[int, int, int]] = []  # (start, end, old register)
    for old, start in first.items():
        if old < pinned:
            continue
        end = last[old]
        j = bisect_left(his, start)  # the first span that does not end before the interval
        k = bisect_right(los, end)  # one past the last span that starts by its end
        if j < k:  # the interval overlaps spans j..k-1: it must cover them
            if los[j] < start:
                start = los[j]
            if his[k - 1] > end:
                end = his[k - 1]
        intervals.append((start, end, old))
    intervals.sort(key=itemgetter(0))

    mapping: dict[int, int] = {r: r for r in range(pinned)}
    free: list[int] = []  # heap
    active: list[tuple[int, int]] = []  # heap of (end, new register)
    next_reg = pinned
    for start, end, old in intervals:
        while active and active[0][0] < start:  # strict: end == start conflicts
            heappush(free, heappop(active)[1])
        if free:
            new = heappop(free)
        else:
            new = next_reg
            next_reg += 1
        mapping[old] = new
        heappush(active, (end, new))

    renamed = [tuple(map(mapping.__getitem__, ws + rs)) for ws, rs in zip(writes, reads)]
    out = [
        instr if new == ws + rs else _renumber(instr, new)
        for instr, ws, rs, new in zip(instructions, writes, reads, renamed)
    ]
    return out, max(next_reg, 1)


# ---------------------------------------------------------------------------
# Type -> register-field layout
# ---------------------------------------------------------------------------


def field_count(t: Type) -> int:
    """Number of flat vector registers a value of type ``t`` occupies."""
    if isinstance(t, UnitType):
        return 0
    if isinstance(t, NatType):
        return 1
    if isinstance(t, ProdType):
        return field_count(t.left) + field_count(t.right)
    if isinstance(t, SumType):
        return 1 + field_count(t.left) + field_count(t.right)
    if isinstance(t, SeqType):
        return 1 + field_count(t.elem)
    raise CompileError(f"unknown type {t!r}")


def encode_batch(values: Sequence[Value], t: Type) -> list[np.ndarray]:
    """Encode a batch of same-typed S-objects straight into int64 vectors.

    The result is the canonical field layout as ready-to-load ``np.int64``
    arrays, and the hot leaves — naturals and flat
    ``[N]`` sequences, i.e. every field of the serving workloads — are built
    by a single ``np.fromiter`` pass over the whole batch instead of a
    Python ``append`` per element.  Stacking B segment descriptors is one
    such pass: batching B requests costs one extra descriptor level, not a
    per-request marshalling loop (the point of ``run_batch``).

    Type errors are detected on a slow re-scan so the fast path carries no
    per-element ``isinstance`` checks.
    """
    if isinstance(t, UnitType):
        for v in values:
            if not isinstance(v, VUnit):
                raise CompileError(f"expected (), got {v!r}")
        return []
    if isinstance(t, NatType):
        try:
            return [
                np.fromiter((v.value for v in values), dtype=np.int64, count=len(values))
            ]
        except (AttributeError, TypeError):
            bad = next(v for v in values if not isinstance(v, VNat))
            raise CompileError(f"expected a natural, got {bad!r}") from None
        except OverflowError:
            # np.fromiter raises a bare OverflowError for values >= 2**63;
            # classify it so batch/serving callers see a marshalling error,
            # not an anonymous crash from inside NumPy
            raise CompileError(
                "input natural exceeds the int64 register width"
            ) from None
    if isinstance(t, SeqType):
        try:
            segs = np.fromiter(
                (len(v.items) for v in values), dtype=np.int64, count=len(values)
            )
        except AttributeError:
            bad = next(v for v in values if not isinstance(v, VSeq))
            raise CompileError(f"expected a sequence, got {bad!r}") from None
        if isinstance(t.elem, NatType):
            try:
                data = np.fromiter(
                    (x.value for v in values for x in v.items),
                    dtype=np.int64,
                    count=int(segs.sum()),
                )
            except (AttributeError, TypeError):
                bad = next(
                    x for v in values for x in v.items if not isinstance(x, VNat)
                )
                raise CompileError(f"expected a natural, got {bad!r}") from None
            except OverflowError:
                raise CompileError(
                    "input natural exceeds the int64 register width"
                ) from None
            return [segs, data]
        items = [x for v in values for x in v.items]
        return [segs] + encode_batch(items, t.elem)
    # products and sums recurse on restructured batches; the per-element
    # work here is building the sub-batch lists, which the leaf cases above
    # then consume without further Python-level loops.
    if isinstance(t, ProdType):
        try:
            fsts = [v.fst for v in values]
            snds = [v.snd for v in values]
        except AttributeError:
            bad = next(v for v in values if not isinstance(v, VPair))
            raise CompileError(f"expected a pair, got {bad!r}") from None
        return encode_batch(fsts, t.left) + encode_batch(snds, t.right)
    if isinstance(t, SumType):
        lefts = [v.value for v in values if isinstance(v, VInl)]
        rights = [v.value for v in values if isinstance(v, VInr)]
        if len(lefts) + len(rights) != len(values):
            bad = next(v for v in values if not isinstance(v, (VInl, VInr)))
            raise CompileError(f"expected an injection, got {bad!r}")
        tags = np.fromiter(
            (1 if isinstance(v, VInl) else 0 for v in values),
            dtype=np.int64,
            count=len(values),
        )
        return [tags] + encode_batch(lefts, t.left) + encode_batch(rights, t.right)
    raise CompileError(f"unknown type {t!r}")


class _NotPlain(Exception):
    """:func:`encode_plain` will not vouch for this input; the message says why."""


def _expect(nodes: Sequence[object], t: Type, kind: type) -> None:
    """The shape check of one level: every node is exactly a ``kind``."""
    found = set(map(type, nodes))
    found.discard(kind)
    if found:
        names = ", ".join(sorted(k.__name__ for k in found))
        raise _NotPlain(f"expected {t}, got {names}")


def encode_plain(nodes: Sequence[object], t: Type) -> list[np.ndarray]:
    """Encode plain Python data of type ``t`` without building S-objects.

    ``nodes`` holds every node of one level — the batch axis is just the
    outermost one — and the recursion is over ``t``: its depth is the type's,
    never the data's, and each level costs a constant number of C-level
    passes over its nodes (a type-set shape check, ``map(len)`` for a segment
    descriptor, ``chain.from_iterable`` to descend, ``np.fromiter`` plus one
    vectorised sign check at a natural leaf).  Same fields as
    ``encode_batch(list(map(from_python, nodes)), t)``, array for array.

    Raises :class:`_NotPlain` on anything else — a node of another Python
    type (S-objects included), a negative or over-wide natural, a sum other
    than ``B`` — for :func:`encode_inputs` to hand to the reference path.
    """
    if isinstance(t, NatType):
        _expect(nodes, t, int)
        try:
            arr = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
        except OverflowError:
            raise _NotPlain(f"expected {t}, got an int beyond int64") from None
        if len(arr) and arr.min() < 0:
            raise _NotPlain(f"expected {t}, got a negative int")
        return [arr]
    if isinstance(t, UnitType):
        _expect(nodes, t, type(None))
        return []
    if isinstance(t, SeqType):
        _expect(nodes, t, list)
        segs = np.fromiter(map(len, nodes), dtype=np.int64, count=len(nodes))
        return [segs] + encode_plain(list(chain.from_iterable(nodes)), t.elem)
    if isinstance(t, ProdType):
        _expect(nodes, t, tuple)
        widths = set(map(len, nodes))
        if widths <= {2}:
            snds = list(map(itemgetter(1), nodes))
        elif min(widths) < 2:
            raise _NotPlain(f"expected {t}, got a tuple of fewer than 2 components")
        else:  # longer tuples right-nest, as in from_python
            snds = [n[1] if len(n) == 2 else n[1:] for n in nodes]
        fsts = list(map(itemgetter(0), nodes))
        return encode_plain(fsts, t.left) + encode_plain(snds, t.right)
    if t == BOOL:
        _expect(nodes, t, bool)
        return [np.fromiter(nodes, dtype=np.int64, count=len(nodes))]
    raise _NotPlain(f"expected {t}, which plain data cannot spell")


_VALUE_TYPES = frozenset((VUnit, VNat, VPair, VInl, VInr, VSeq))


def encode_inputs(values: Sequence[object], t: Type) -> list[np.ndarray]:
    """Encode a batch of requests, each an S-object or plain Python data.

    A batch of S-objects takes :func:`encode_batch`, anything else
    :func:`encode_plain`; what that one will not vouch for re-runs the whole
    batch through the reference ``from_python`` + :func:`encode_batch`, which
    succeeds or raises what it always raised.  The one exception is a request
    nested deeper than the recursion limit: it is ill-typed for every
    program, the reference would die of ``RecursionError`` (which no caller
    treats as one request's error), so it gets a :class:`CompileError` naming
    the first mismatch instead — types only, ``repr`` of it would recurse too.
    """
    if set(map(type, values)) <= _VALUE_TYPES:
        return encode_batch(values, t)
    try:
        return encode_plain(values, t)
    except _NotPlain as e:
        why = str(e)
    try:
        return encode_batch(list(map(from_python, values)), t)
    except RecursionError:
        raise CompileError(
            f"{why}: the request nests deeper than the recursion limit"
        ) from None


def split_batch(
    fields: Sequence[np.ndarray], t: Type, spans: Sequence[tuple[int, int]]
) -> list[list[np.ndarray]]:
    """Slice one canonical batch encoding into per-span field **views**.

    ``fields`` is the :func:`encode_batch` image of a batch of B values of
    type ``t``; ``spans`` is a list of ``(offset, length)`` ranges along the
    batch axis (``repro.compiler.batch.split_shards`` produces them).  The
    result holds, for every span, exactly the field vectors
    ``encode_batch(values[off:off+length], t)`` would produce — but as
    NumPy **views into the original arrays**, so splitting a batch B ways
    costs O(B) descriptor arithmetic, not a re-encode.  This is the
    span-view entry point the zero-copy shard transport is built on.

    Offsets into nested field groups are not uniform slices: a sequence
    field's data space is addressed through the segment descriptor (one
    exclusive prefix sum, computed once per descriptor and shared by every
    span) and a sum field's packed payloads through its tag prefix counts.
    The recursion mirrors :func:`encode_batch`'s field order exactly.
    """
    out: list[list[np.ndarray]] = [[] for _ in spans]
    consumed = _split_fields(list(fields), 0, t, list(spans), out)
    if consumed != len(fields):
        raise CompileError(
            f"{len(fields) - consumed} unconsumed fields while splitting {t}"
        )
    return out


def _exclusive_cumsum(arr: np.ndarray) -> np.ndarray:
    cum = np.zeros(len(arr) + 1, dtype=np.int64)
    np.cumsum(arr, out=cum[1:])
    return cum


def _split_fields(
    fields: list,
    idx: int,
    t: Type,
    spans: list[tuple[int, int]],
    out: list[list[np.ndarray]],
) -> int:
    """Append the ``t``-typed field views for every span; return the next
    field index.  ``spans`` addresses the *local* batch axis of this field
    group (each nesting level re-derives its own offsets)."""
    if isinstance(t, UnitType):
        return idx
    if isinstance(t, NatType):
        arr = fields[idx]
        for k, (off, length) in enumerate(spans):
            out[k].append(arr[off : off + length])
        return idx + 1
    if isinstance(t, ProdType):
        idx = _split_fields(fields, idx, t.left, spans, out)
        return _split_fields(fields, idx, t.right, spans, out)
    if isinstance(t, SumType):
        tags = fields[idx]
        cum = _exclusive_cumsum(tags)  # Inl counts before each position
        lspans, rspans = [], []
        for k, (off, length) in enumerate(spans):
            out[k].append(tags[off : off + length])
            n_left = int(cum[off + length] - cum[off])
            lspans.append((int(cum[off]), n_left))
            rspans.append((off - int(cum[off]), length - n_left))
        idx = _split_fields(fields, idx + 1, t.left, lspans, out)
        return _split_fields(fields, idx, t.right, rspans, out)
    if isinstance(t, SeqType):
        segs = fields[idx]
        cum = _exclusive_cumsum(segs)  # element offsets of each batch slot
        espans = []
        for k, (off, length) in enumerate(spans):
            out[k].append(segs[off : off + length])
            espans.append((int(cum[off]), int(cum[off + length] - cum[off])))
        return _split_fields(fields, idx + 1, t.elem, espans, out)
    raise CompileError(f"unknown type {t!r}")


def decode_batch(fields: Sequence[Sequence[int]], t: Type, count: int) -> list[Value]:
    """Decode ``count`` S-objects from the canonical field vectors of type ``t``.

    Inverse of :func:`encode_batch`.  Accepts plain sequences or NumPy int64
    vectors (machine registers are passed in directly, so 20k-element outputs
    decode via ``.tolist()`` without a per-element ``int(...)`` round-trip).
    """
    out, rest = _decode(list(fields), t, count)
    if rest:
        raise CompileError(f"{len(rest)} unconsumed output fields while decoding {t}")
    return out


def _as_ints(field: Sequence[int]) -> list[int]:
    return field.tolist() if isinstance(field, np.ndarray) else [int(x) for x in field]


def _decode(
    fields: list[Sequence[int]], t: Type, count: int
) -> tuple[list[Value], list[Sequence[int]]]:
    if isinstance(t, UnitType):
        return [UNIT_VALUE] * count, fields
    if isinstance(t, NatType):
        head, rest = fields[0], fields[1:]
        if len(head) != count:
            raise CompileError(f"decoding N: expected {count} entries, got {len(head)}")
        return nat_batch(_as_ints(head)), rest
    if isinstance(t, ProdType):
        lefts, rest = _decode(fields, t.left, count)
        rights, rest = _decode(rest, t.right, count)
        return [VPair(a, b) for a, b in zip(lefts, rights)], rest
    if isinstance(t, SumType):
        tags, rest = fields[0], fields[1:]
        if len(tags) != count:
            raise CompileError(f"decoding a sum: expected {count} tags, got {len(tags)}")
        if isinstance(tags, np.ndarray):
            tags = tags.tolist()
        n_left = sum(1 for x in tags if x)
        lefts, rest = _decode(rest, t.left, n_left)
        rights, rest = _decode(rest, t.right, count - n_left)
        li, ri = iter(lefts), iter(rights)
        return [VInl(next(li)) if x else VInr(next(ri)) for x in tags], rest
    if isinstance(t, SeqType):
        segs, rest = fields[0], fields[1:]
        if len(segs) != count:
            raise CompileError(f"decoding a sequence: expected {count} segments, got {len(segs)}")
        if isinstance(segs, np.ndarray):
            segs = segs.tolist()
        total = int(sum(segs))
        if isinstance(t.elem, NatType):
            # flat [N]: one interning pass over the data field, cut by segs
            data, rest = rest[0], rest[1:]
            if len(data) != total:
                raise CompileError(f"decoding [N]: expected {total} entries, got {len(data)}")
            return nat_seq_batch(_as_ints(data), map(int, segs)), rest
        items, rest = _decode(rest, t.elem, total)
        out: list[Value] = []
        pos = 0
        for s in segs:
            s = int(s)
            out.append(VSeq(items[pos : pos + s]))
            pos += s
        return out, rest
    raise CompileError(f"unknown type {t!r}")
