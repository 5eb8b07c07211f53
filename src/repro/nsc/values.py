"""S-objects: the values manipulated by NSC programs (Section 3).

The paper defines S-objects by the grammar::

    C ::= () | n | (C, C) | inl(C) | inr(C) | [C, ..., C]     (n in N)

together with the *unit-cost* size measure::

    size(())            = 1
    size(n)             = 1
    size((C, D))        = 1 + size(C) + size(D)
    size(inl(C))        = 1 + size(C)
    size(inr(C))        = 1 + size(C)
    size([C0,...,Cn-1]) = 1 + sum_i size(Ci)

Sizes drive the work-complexity accounting of Definition 3.1, so they are
computed once at construction time and cached on each value node (an
evaluation may mention the same object in many rules).

``true`` and ``false`` abbreviate ``inl(())`` and ``inr(())``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .types import (
    BOOL,
    NAT,
    UNIT,
    NatType,
    ProdType,
    SeqType,
    SumType,
    Type,
    UnitType,
)


class Value:
    """Base class of S-objects.  Immutable; ``size`` is cached."""

    __slots__ = ("size",)
    size: int

    def __eq__(self, other: object) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def __hash__(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError


class VUnit(Value):
    """The empty tuple ``()``."""

    __slots__ = ()

    def __init__(self) -> None:
        object.__setattr__(self, "size", 1)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VUnit is immutable")

    def __reduce__(self):
        # The immutability __setattr__ above also fires during slot-state
        # unpickling, so every Value pickles by replaying its constructor —
        # shard workers (repro.serving.shard) move S-objects between
        # processes.
        return (VUnit, ())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VUnit)

    def __hash__(self) -> int:
        return hash(VUnit)

    def __repr__(self) -> str:
        return "()"


class VNat(Value):
    """A natural number ``n``."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"VNat must be non-negative, got {value}")
        object.__setattr__(self, "value", int(value))
        object.__setattr__(self, "size", 1)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VNat is immutable")

    def __reduce__(self):
        return (VNat, (self.value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VNat) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("VNat", self.value))

    def __repr__(self) -> str:
        return str(self.value)


class VPair(Value):
    """A pair ``(fst, snd)``."""

    __slots__ = ("fst", "snd")

    def __init__(self, fst: Value, snd: Value) -> None:
        object.__setattr__(self, "fst", fst)
        object.__setattr__(self, "snd", snd)
        object.__setattr__(self, "size", 1 + fst.size + snd.size)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VPair is immutable")

    def __reduce__(self):
        return (VPair, (self.fst, self.snd))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VPair) and self.fst == other.fst and self.snd == other.snd

    def __hash__(self) -> int:
        return hash(("VPair", self.fst, self.snd))

    def __repr__(self) -> str:
        return f"({self.fst!r}, {self.snd!r})"


class VInl(Value):
    """Left injection ``inl(value)`` into a sum type."""

    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "size", 1 + value.size)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VInl is immutable")

    def __reduce__(self):
        return (VInl, (self.value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VInl) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("VInl", self.value))

    def __repr__(self) -> str:
        return f"inl({self.value!r})"


class VInr(Value):
    """Right injection ``inr(value)`` into a sum type."""

    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "size", 1 + value.size)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VInr is immutable")

    def __reduce__(self):
        return (VInr, (self.value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VInr) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("VInr", self.value))

    def __repr__(self) -> str:
        return f"inr({self.value!r})"


class VSeq(Value):
    """A finite sequence ``[x0, ..., xn-1]``."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Value]) -> None:
        tup = tuple(items)
        object.__setattr__(self, "items", tup)
        object.__setattr__(self, "size", 1 + sum(v.size for v in tup))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VSeq is immutable")

    def __reduce__(self):
        return (VSeq, (self.items,))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Value]:
        return iter(self.items)

    def __getitem__(self, idx: int) -> Value:
        return self.items[idx]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VSeq) and self.items == other.items

    def __hash__(self) -> int:
        return hash(("VSeq", self.items))

    def __repr__(self) -> str:
        return "[" + ", ".join(repr(v) for v in self.items) + "]"


# ---------------------------------------------------------------------------
# Canonical constants and constructors.
# ---------------------------------------------------------------------------

UNIT_VALUE = VUnit()
#: ``true = inl(())``
TRUE = VInl(UNIT_VALUE)
#: ``false = inr(())``
FALSE = VInr(UNIT_VALUE)

#: VNat is immutable and compared by value, so small naturals are interned —
#: decoding a compiled run's output builds tens of thousands of them.
_INTERN_LIMIT = 4096
_SMALL_NATS = tuple(VNat(i) for i in range(_INTERN_LIMIT))


def nat_batch(values: Sequence[int]) -> list[VNat]:
    """Build many VNats at once, hitting the intern table where possible."""
    small = _SMALL_NATS
    limit = _INTERN_LIMIT
    return [small[n] if 0 <= n < limit else VNat(n) for n in values]


def nat_seq_value(values: Sequence[int]) -> VSeq:
    """Build a ``[N]`` S-object from ints without the per-element size walk.

    Every element has size 1, so the sequence's cached size is
    ``1 + len(values)`` — constructing through ``VSeq.__init__`` would
    recompute that with a 20k-element Python ``sum``.
    """
    return nat_seq_batch(values, (len(values),))[0]


def nat_seq_batch(values: Sequence[int], lengths: Iterable[int]) -> list[VSeq]:
    """Cut one flat data field into ``[N]`` S-objects, one per segment length.

    The naturals are interned in a single :func:`nat_batch` pass over the
    whole field and the ``VSeq`` slots are filled directly, so decoding a
    ``[[N]]`` result of 25k segments costs one loop step per segment, not a
    constructor chain per segment.
    """
    nats = nat_batch(values)
    new, put = VSeq.__new__, object.__setattr__
    out, pos = [], 0
    for n in lengths:
        v = new(VSeq)
        put(v, "items", tuple(nats[pos : pos + n]))
        put(v, "size", 1 + n)
        out.append(v)
        pos += n
    return out


def nat(n: int) -> VNat:
    """Build a natural-number value."""
    return VNat(n)


def pair(a: Value, b: Value) -> VPair:
    """Build a pair value."""
    return VPair(a, b)


def vseq(items: Iterable[Value]) -> VSeq:
    """Build a sequence value."""
    return VSeq(items)


def bool_value(b: bool) -> Value:
    """Encode a Python bool as the NSC boolean (inl(()) / inr(()))."""
    return TRUE if b else FALSE


def truth(v: Value) -> bool:
    """Decode an NSC boolean; raises on non-boolean shapes."""
    if v == TRUE:
        return True
    if v == FALSE:
        return False
    raise TypeError(f"not a boolean S-object: {v!r}")


def from_python(obj: object) -> Value:
    """Convert nested Python data (ints, tuples, lists, bools, None) to an S-object.

    * ``None`` -> ``()``
    * ``bool`` -> ``true`` / ``false``
    * ``int`` -> ``n``
    * 2-``tuple`` -> pair (longer tuples right-nest)
    * ``list`` -> sequence
    """
    if obj is None:
        return UNIT_VALUE
    if isinstance(obj, Value):
        return obj
    if isinstance(obj, bool):
        return bool_value(obj)
    if isinstance(obj, int):
        return VNat(obj)
    if isinstance(obj, tuple):
        if len(obj) < 2:
            raise ValueError("tuples must have at least 2 components")
        values = [from_python(o) for o in obj]
        result = values[-1]
        for v in reversed(values[:-1]):
            result = VPair(v, result)
        return result
    if isinstance(obj, list):
        if set(map(type, obj)) == {int}:  # flat [N]: one interning pass, no recursion
            return nat_seq_value(obj)
        return VSeq(from_python(o) for o in obj)
    raise TypeError(f"cannot convert {type(obj).__name__} to an S-object")


def to_python(v: Value) -> object:
    """Inverse of :func:`from_python` (pairs become 2-tuples, booleans stay sums)."""
    if isinstance(v, VUnit):
        return None
    if isinstance(v, VNat):
        return v.value
    if isinstance(v, VPair):
        return (to_python(v.fst), to_python(v.snd))
    if isinstance(v, VSeq):
        return [to_python(x) for x in v.items]
    if isinstance(v, VInl):
        if isinstance(v.value, VUnit):
            return True
        return ("inl", to_python(v.value))
    if isinstance(v, VInr):
        if isinstance(v.value, VUnit):
            return False
        return ("inr", to_python(v.value))
    raise TypeError(f"unknown value {v!r}")


def size(v: Value) -> int:
    """Unit-cost size of an S-object (Section 3)."""
    return v.size


def check_value_type(v: Value, t: Type) -> bool:
    """Check that S-object ``v`` inhabits type ``t``."""
    if isinstance(t, UnitType):
        return isinstance(v, VUnit)
    if isinstance(t, NatType):
        return isinstance(v, VNat)
    if isinstance(t, ProdType):
        return isinstance(v, VPair) and check_value_type(v.fst, t.left) and check_value_type(v.snd, t.right)
    if isinstance(t, SumType):
        if isinstance(v, VInl):
            return check_value_type(v.value, t.left)
        if isinstance(v, VInr):
            return check_value_type(v.value, t.right)
        return False
    if isinstance(t, SeqType):
        return isinstance(v, VSeq) and all(check_value_type(x, t.elem) for x in v.items)
    raise TypeError(f"unknown type {t!r}")


def nat_list(values: Sequence[int]) -> VSeq:
    """Build a sequence of naturals from Python ints."""
    return VSeq(VNat(int(v)) for v in values)


def seq_of_nats_to_list(v: Value) -> list[int]:
    """Extract a flat ``[N]`` S-object into a Python list of ints."""
    if not isinstance(v, VSeq):
        raise TypeError(f"expected a sequence, got {v!r}")
    out: list[int] = []
    for item in v.items:
        if not isinstance(item, VNat):
            raise TypeError(f"expected a sequence of naturals, got element {item!r}")
        out.append(item.value)
    return out
