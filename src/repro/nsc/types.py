"""Types of the Nested Sequence Calculus (NSC), Section 3 / Appendix A.

The type grammar of the paper is::

    t ::= unit | N | t x t | t + t | [t]

``unit`` has the single value ``()``; ``N`` is the natural numbers; ``s x t``
is the product type; ``s + t`` is the disjoint (tagged) union; ``[t]`` is the
type of finite sequences over ``t``.  The boolean type ``B`` is *defined* as
``unit + unit`` with ``true = inl(())`` and ``false = inr(())``.

Function "types" ``s -> t`` are *not* types of the calculus (NSC is strictly
first order); they are represented separately by :class:`FunType` and may only
appear as the classification of an NSC *function* (lambda abstraction, map,
while, ...), never nested inside a type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import _fastpickle as fastpickle
from .._fastpickle import FastSlotPickle


class Type(FastSlotPickle):
    """Base class of NSC object types (unit, N, products, sums, sequences)."""

    __slots__ = ()

    # -- structural helpers -------------------------------------------------
    def is_scalar(self) -> bool:
        """A *scalar* type contains no sequence constructor (cf. Section 7.1).

        Scalar types are the ones allowed inside SA's ``map`` of scalar
        functions: ``s ::= unit | N | s x s | s + s``.
        """
        raise NotImplementedError

    def is_flat(self) -> bool:
        """A *flat* type has sequences only of scalars (cf. Section 7.1).

        Flat types: ``t ::= unit | [s] | t x t | t + t`` with ``s`` scalar.
        Every scalar type is also flat.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return str(self)


@dataclass(frozen=True, slots=True)
class UnitType(Type):
    """The one-element type ``unit``."""

    def is_scalar(self) -> bool:
        return True

    def is_flat(self) -> bool:
        return True

    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True, slots=True)
class NatType(Type):
    """The type ``N`` of non-negative integers."""

    def is_scalar(self) -> bool:
        return True

    def is_flat(self) -> bool:
        return True

    def __str__(self) -> str:
        return "N"


@dataclass(frozen=True, slots=True)
class ProdType(Type):
    """The product type ``left x right``."""

    left: Type
    right: Type

    def is_scalar(self) -> bool:
        return self.left.is_scalar() and self.right.is_scalar()

    def is_flat(self) -> bool:
        return self.left.is_flat() and self.right.is_flat()

    def __str__(self) -> str:
        return f"({self.left} x {self.right})"


@dataclass(frozen=True, slots=True)
class SumType(Type):
    """The disjoint union type ``left + right``."""

    left: Type
    right: Type

    def is_scalar(self) -> bool:
        return self.left.is_scalar() and self.right.is_scalar()

    def is_flat(self) -> bool:
        return self.left.is_flat() and self.right.is_flat()

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@dataclass(frozen=True, slots=True)
class SeqType(Type):
    """The finite-sequence type ``[elem]``."""

    elem: Type

    def is_scalar(self) -> bool:
        return False

    def is_flat(self) -> bool:
        return self.elem.is_scalar()

    def __str__(self) -> str:
        return f"[{self.elem}]"


@dataclass(frozen=True, slots=True)
class FunType(FastSlotPickle):
    """The classification ``dom -> cod`` of an NSC *function*.

    Not a first-class type: it cannot occur inside :class:`ProdType`,
    :class:`SumType` or :class:`SeqType` (the paper explicitly rules out
    higher-order functions).
    """

    dom: Type
    cod: Type

    def __str__(self) -> str:
        return f"{self.dom} -> {self.cod}"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return str(self)


# Canonical singletons / abbreviations used throughout the code base.
UNIT = UnitType()
NAT = NatType()
#: The boolean type ``B = unit + unit`` (true = inl(()), false = inr(())).
BOOL = SumType(UNIT, UNIT)


def prod(left: Type, right: Type) -> ProdType:
    """Convenience constructor for product types."""
    return ProdType(left, right)


def sum_t(left: Type, right: Type) -> SumType:
    """Convenience constructor for sum types."""
    return SumType(left, right)


def seq(elem: Type) -> SeqType:
    """Convenience constructor for sequence types."""
    return SeqType(elem)


def fun(dom: Type, cod: Type) -> FunType:
    """Convenience constructor for function classifications."""
    return FunType(dom, cod)


def type_depth(t: Type) -> int:
    """Nesting depth of sequence constructors in ``t``.

    Used by the flattening passes: flat types have depth <= 1.
    """
    if isinstance(t, SeqType):
        return 1 + type_depth(t.elem)
    if isinstance(t, (ProdType, SumType)):
        return max(type_depth(t.left), type_depth(t.right))
    return 0


fastpickle.install(Type)
fastpickle.install(FunType)
