"""Multisets over a finite ordered universe.

A multiset pairs an ordered universe of distinct element identifiers with a
multiplicity function taking non-negative rational values.  When every
multiplicity is an integer the multiset is *natural* and behaves like an
unordered list with repetition.  All values are kept exact: integers stay
``int`` and non-integers are ``fractions.Fraction``.

Instances are immutable; every operation returns a new value.  The
universe is validated once into a ``Universe``, an ordered tuple that
carries its element -> position table; multisets built over the same
``Universe`` object share it, so an hb-graph's p hb-edges hold one vertex
table between them instead of p copies.  Building a multiset costs
O(s log s) in its support size s, whatever the size of the universe.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import DomainError, NotNatural, UniverseMismatch

Rational = Union[int, Fraction]


def as_rational(value) -> Rational:
    """Normalize a multiplicity to int (when integral) or Fraction."""
    if isinstance(value, bool):
        raise DomainError(f"multiplicity must be a number, got {value!r}")
    if isinstance(value, int):
        return value
    frac = Fraction(value) if not isinstance(value, Fraction) else value
    return int(frac) if frac.denominator == 1 else frac


class Universe(tuple):
    """Distinct identifiers in a fixed order, with their position table."""

    def __new__(cls, items: Iterable = ()):
        self = super().__new__(cls, items)
        self.position = {x: k for k, x in enumerate(self)}
        if len(self.position) != len(self):
            raise DomainError("universe contains duplicate identifiers")
        return self


def _same(u: tuple, v: tuple) -> bool:
    return u is v or u == v


class NumberedCopySet(NamedTuple):
    """Copies of a natural multiset's elements, numbered 1..m(x) per element."""

    originals: Mapping[str, int]
    copies: tuple[tuple[str, int], ...]


class Multiset:
    """Immutable multiset over an explicit ordered universe.

    Two multisets are equal iff they have the same universe (same order) and
    the same multiplicity for every element.  Zero multiplicities are
    normalized away on construction, so support and hashing are canonical.
    """

    __slots__ = ("_universe", "_mult", "_natural")

    def __init__(
        self,
        universe: Iterable[str],
        mult: Mapping[str, Rational] | None = None,
    ):
        uni = universe if isinstance(universe, Universe) else Universe(universe)
        position = uni.position
        normalized: dict[str, Rational] = {}
        for x, raw in (mult or {}).items():
            if x not in position:
                raise UniverseMismatch(f"element {x!r} not in universe")
            value = as_rational(raw)
            if value < 0:
                raise DomainError(f"negative multiplicity for {x!r}: {raw!r}")
            if value != 0:
                normalized[x] = value
        # canonical key order = universe order
        ordered = {x: normalized[x] for x in sorted(normalized, key=position.__getitem__)}
        object.__setattr__(self, "_universe", uni)
        object.__setattr__(self, "_mult", ordered)
        object.__setattr__(self, "_natural", all(isinstance(v, int) for v in ordered.values()))

    def __setattr__(self, name, value):
        raise AttributeError("Multiset is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def mult(self) -> Mapping[str, Rational]:
        return dict(self._mult)

    @property
    def natural(self) -> bool:
        return self._natural

    @classmethod
    def empty(cls, universe: Iterable[str]) -> "Multiset":
        return cls(universe, {})

    @classmethod
    def from_elements(cls, universe: Iterable[str], elements: Iterable[str]) -> "Multiset":
        """Natural multiset from an unordered list with repetition."""
        counts: dict[str, int] = {}
        for x in elements:
            counts[x] = counts.get(x, 0) + 1
        return cls(universe, counts)

    def multiplicity(self, x: str) -> Rational:
        if x not in self._universe.position:
            raise KeyError(x)
        return self._mult.get(x, 0)

    def support(self) -> tuple[str, ...]:
        """Elements with nonzero multiplicity, in universe order."""
        return tuple(self._mult)

    def m_cardinality(self) -> Rational:
        return sum(self._mult.values())

    def cardinality(self) -> int:
        return len(self._mult)

    def is_empty(self) -> bool:
        return not self._mult

    def is_cognate(self, other: "Multiset") -> bool:
        """Same support (universes may differ)."""
        return set(self._mult) == set(other._mult)

    # -- comparisons -------------------------------------------------------

    def includes(self, other: "Multiset") -> bool:
        """True iff ``other`` is a submset of ``self`` (pointwise <=)."""
        self._check_universe(other)
        return all(self._mult.get(x, 0) >= v for x, v in other._mult.items())

    def __le__(self, other: "Multiset") -> bool:
        return other.includes(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return _same(self._universe, other._universe) and self._mult == other._mult

    def __hash__(self) -> int:
        # the support only, O(s) rather than O(n); __eq__ compares universes
        return hash(tuple(self._mult.items()))

    def __contains__(self, x) -> bool:
        return x in self._mult

    def __repr__(self) -> str:
        body = ", ".join(f"{x}:{v}" for x, v in self._mult.items())
        return f"Multiset({{{body}}})"

    # -- algebra -----------------------------------------------------------

    def _check_universe(self, other: "Multiset") -> None:
        if not _same(self._universe, other._universe):
            raise UniverseMismatch("operands have different universes")

    def _pointwise(self, other: "Multiset", op) -> "Multiset":
        """Apply ``op`` on the union of the supports (every op maps 0, 0 to 0)."""
        self._check_universe(other)
        merged = {
            x: op(self._mult.get(x, 0), other._mult.get(x, 0))
            for x in self._mult.keys() | other._mult.keys()
        }
        return Multiset(self._universe, merged)

    def union(self, other: "Multiset") -> "Multiset":
        """Pointwise maximum."""
        return self._pointwise(other, max)

    def intersection(self, other: "Multiset") -> "Multiset":
        """Pointwise minimum."""
        return self._pointwise(other, min)

    def msum(self, other: "Multiset") -> "Multiset":
        """Pointwise sum."""
        return self._pointwise(other, lambda a, b: a + b)

    __or__ = union
    __and__ = intersection
    __add__ = msum

    # -- representations ---------------------------------------------------

    def vector_repr(self) -> list[Rational]:
        """Dense multiplicity vector in universe order."""
        return [self._mult.get(x, 0) for x in self._universe]

    def numbered_copies(self) -> NumberedCopySet:
        """Unroll a natural multiset into numbered copies (x,1)..(x,m(x))."""
        for x, v in self._mult.items():
            if not isinstance(v, int):
                raise NotNatural(f"non-integer multiplicity for {x!r}")
        copies = tuple((x, j) for x, v in self._mult.items() for j in range(1, v + 1))
        return NumberedCopySet(originals=dict(self._mult), copies=copies)
