"""Hyper-bag-graphs: ordered families of multisets over a shared vertex set.

An hb-graph generalizes a hypergraph by letting each edge be a multiset
(hb-edge) over the vertex universe.  The edge family is ordered and may
contain repeats; an edge's identity is its index.  Instances are immutable
and all queries are read-only.  Multiplicities, and weights, are exact
``Rational``s: ``as_rational`` keeps an integral value an ``int`` and makes
any other a ``fractions.Fraction``.

The vertex list is a ``Universe``, an ordered tuple of distinct identifiers
that carries its element -> position table, the graph's only one.  Each
hb-edge is stored once, as its run key over the 1-based vertex positions,
((position + 1, m, 1), ...) by ascending position, beside its m-cardinality.
One pass over the edges' element -> multiplicity mappings, checked by
``_checked``, builds the keys, the m-cardinalities and each vertex's
hb-star, its (edge index, multiplicity) pairs, so m-degree, degree and
maximal multiplicity cost O(degree) per vertex and the order O(n + sum of
degrees).  The hb-stars are the rows of the incidence matrix [m_{e_j}(v_i)]
without their zeros, and the keys its columns: the tensor keys read the
keys, the weighted degrees ``verify`` checks, the incidence CSV and
``incidence_matrix`` read the stars.  ``edges`` views the keys as
``Multiset``s, made on first use; no command-line verb reads it.

A hypergraph is an hb-graph whose multiplicities are in {0, 1}, so the
derived hypergraphs (the support hypergraph, the numbered-copy hypergraph)
are ``HbGraph``s too, and every hb-graph, path and tensor function takes them.
``Multiset`` and the operations derived from hb-graphs that no command-line
verb runs, the 2-section, the hb-sum and the directness test, live in
``algebra``.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

from .errors import (
    DomainError,
    EmptyEdgeFamily,
    NotNatural,
    UniverseMismatch,
    UnknownEdge,
    UnknownVertex,
)

if TYPE_CHECKING:  # imported where used, so building a graph loads neither
    from fractions import Fraction

    from .algebra import Multiset

Rational = Union[int, "Fraction"]

_Fraction = None  # ``fractions.Fraction``, once ``_fraction`` has imported it


def _fraction(*args) -> Fraction:
    """``fractions.Fraction(*args)``.  The first call imports ``fractions``,
    which loads ``decimal`` and ``numbers``, so a run that meets only
    integers never loads them.  The verbs' modules import it nowhere else,
    and tell a ``Fraction`` already built by its ``denominator``."""
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction(*args)


def as_rational(value) -> Rational:
    """Normalize a multiplicity to int (when integral) or Fraction."""
    if isinstance(value, bool):
        raise DomainError(f"multiplicity must be a number, got {value!r}")
    if isinstance(value, int):
        return value
    frac = value if hasattr(value, "denominator") else _fraction(value)
    return int(frac) if frac.denominator == 1 else frac


def _ratio(numerator: Rational, denominator: int) -> Rational:
    """The exact quotient numerator / denominator, as ``as_rational`` gives it."""
    frac = _fraction(numerator, denominator)
    return int(frac) if frac.denominator == 1 else frac


class Universe(tuple):
    """Distinct identifiers in a fixed order, with their position table."""

    def __new__(cls, items: Iterable = ()):
        self = super().__new__(cls, items)
        self.position = {x: k for k, x in enumerate(self)}
        if len(self.position) != len(self):
            raise DomainError("universe contains duplicate identifiers")
        return self


def _checked(position: Mapping, mult: Mapping) -> list[tuple[int, Rational]]:
    """The nonzero (position, multiplicity) pairs of an element ->
    multiplicity mapping, by ascending position.  An element outside
    ``position`` raises ``UniverseMismatch``; each value goes through
    ``as_rational``, and a negative one raises ``DomainError``."""
    pairs = []
    for x, raw in mult.items():
        if x not in position:
            raise UniverseMismatch(f"element {x!r} not in universe")
        value = as_rational(raw)
        if value < 0:
            raise DomainError(f"negative multiplicity for {x!r}: {raw!r}")
        if value:
            pairs.append((position[x], value))
    pairs.sort()
    return pairs


class HbGraph:
    """Immutable hb-graph: vertex list, ordered hb-edge family, optional weights.

    Each hb-edge is given as an element -> multiplicity mapping over the
    vertex list, or as a ``Multiset`` over an equal universe."""

    __slots__ = ("_vertices", "_keys", "_cards", "_weights", "_stars", "_edges")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[Mapping[str, Rational] | Multiset] = (),
        weights: Sequence[Rational] | None = None,
    ):
        vs = vertices if isinstance(vertices, Universe) else Universe(vertices)
        position = vs.position
        keys, cards = [], []
        stars = [[] for _ in vs]
        for j, e in enumerate(edges):
            universe = getattr(e, "universe", vs)  # a Multiset's
            if universe is not vs and universe != vs:
                raise UniverseMismatch("edge universe differs from vertex list")
            pairs = _checked(position, getattr(e, "mult", e))
            keys.append(tuple([(k + 1, m, 1) for k, m in pairs]))
            cards.append(sum([m for _, m in pairs]))
            for k, m in pairs:
                stars[k].append((j, m))
        ws = None
        if weights is not None:
            ws = tuple(as_rational(w) for w in weights)
            if len(ws) != len(keys):
                raise DomainError("one weight per hb-edge required")
            if any(w <= 0 for w in ws):
                raise DomainError("weights must be positive")
        values = (vs, tuple(keys), tuple(cards), ws, stars, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("HbGraph is immutable")

    @classmethod
    def from_dicts(
        cls,
        vertices: Iterable[str],
        edges: Iterable[Mapping[str, Rational]],
        weights: Sequence[Rational] | None = None,
    ) -> "HbGraph":
        """The constructor, under the name of its mapping-edges form."""
        return cls(vertices, edges, weights)

    # -- structure ----------------------------------------------------------

    @property
    def vertices(self) -> Universe:
        return self._vertices

    @property
    def edges(self) -> tuple[Multiset, ...]:
        """The hb-edges as ``Multiset``s over the vertex list, made on first use."""
        if self._edges is None:
            from .algebra import Multiset

            vs = self._vertices
            edges = tuple(Multiset(vs, {vs[i - 1]: m for i, m, _ in key}) for key in self._keys)
            object.__setattr__(self, "_edges", edges)
        return self._edges

    @property
    def weights(self) -> tuple[Rational, ...] | None:
        return self._weights

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def p(self) -> int:
        return len(self._keys)

    def weight(self, i: int) -> Rational:
        """Edge weight, defaulting to 1 for unweighted hb-graphs."""
        self._check_edge(i)
        return self._weights[i] if self._weights is not None else 1

    def vertex_index(self, v: str) -> int:
        try:
            return self._vertices.position[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def _star(self, v: str) -> list[tuple[int, Rational]]:
        """(edge index, multiplicity) of every hb-edge containing ``v``."""
        return self._stars[self.vertex_index(v)]

    def _check_edge(self, i: int) -> None:
        if not 0 <= i < len(self._keys):
            raise UnknownEdge(f"unknown hb-edge {i}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, HbGraph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._keys == other._keys
            and self._weights == other._weights
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._keys, self._weights))

    def __repr__(self) -> str:
        return f"HbGraph(n={self.n}, p={self.p}, weighted={self._weights is not None})"

    def is_natural(self) -> bool:
        return all(isinstance(m, int) for key in self._keys for _, m, _ in key)

    def no_repeated_edges(self) -> bool:
        return len(set(self._keys)) == len(self._keys)

    def has_empty_edges(self) -> bool:
        return not all(self._keys)

    def edge_counter(self) -> Counter:
        """Edge family as a multiset, for order-insensitive comparison."""
        return Counter(self.edges)

    # -- metrics ------------------------------------------------------------

    def max_multiplicity(self, v: str) -> Rational:
        """Maximum multiplicity of ``v`` over all hb-edges."""
        return max((m for _, m in self._star(v)), default=0)

    def order(self) -> Rational:
        return sum(max((m for _, m in star), default=0) for star in self._stars)

    def size(self) -> int:
        return len(self._keys)

    def isolated_vertices(self) -> tuple[str, ...]:
        return tuple(v for v, star in zip(self._vertices, self._stars) if not star)

    def m_degree(self, v: str) -> Rational:
        return sum(m for _, m in self._star(v))

    def degree(self, v: str) -> int:
        """Degree in the support hypergraph."""
        return len(self._star(v))

    def hb_star(self, v: str) -> Multiset:
        """Multiset of incident edge indices, each with multiplicity m_e(v),
        over the universe 0..p-1."""
        from .algebra import Multiset

        return Multiset(range(self.p), dict(self._star(v)))

    def m_range(self) -> Rational:
        if not self._cards:
            raise EmptyEdgeFamily("m-range of an empty edge family")
        return max(self._cards)

    def m_corange(self) -> Rational:
        if not self._cards:
            raise EmptyEdgeFamily("m-co-range of an empty edge family")
        return min(self._cards)

    def is_k_m_uniform(self, k: Rational) -> bool:
        return self.m_range() == self.m_corange() == k

    def is_k_m_regular(self, k: Rational) -> bool:
        return all(self.m_degree(v) == k for v in self._vertices)

    # -- derived objects ----------------------------------------------------

    def incidence_matrix(self) -> tuple[tuple[Rational, ...], ...]:
        """The n rows [m_{e_j}(v_i)]_j of the incidence matrix, from the hb-stars."""
        rows = []
        for star in self._stars:
            row = [0] * self.p
            for j, m in star:
                row[j] = m
            rows.append(tuple(row))
        return tuple(rows)

    def support_hypergraph(self) -> "HbGraph":
        """Unweighted hypergraph of the hb-edges' supports, each vertex once."""
        return HbGraph(self._vertices, [dict.fromkeys(e.support(), 1) for e in self.edges])

    def dual(self) -> "HbGraph":
        """Dual hb-graph: one vertex per hb-edge, one hb-edge per vertex.

        Weights are dropped; isolated vertices become empty dual edges.
        """
        dual_vertices = Universe(f"~e{i + 1}" for i in range(len(self._keys)))
        return HbGraph(
            dual_vertices,
            [{dual_vertices[j]: m for j, m in star} for star in self._stars],
        )

    def numbered_copy_hypergraph(self) -> "HbGraph":
        """Unweighted hypergraph over the numbered copies (v, 1)..(v, max
        multiplicity of v): each hb-edge becomes its ``Multiset.numbered_copies``,
        copy numbers as small as possible, which makes the result unique.
        """
        if not self.is_natural():
            raise NotNatural("numbered copies need integer multiplicities")
        copies = Universe(
            (v, j)
            for v, star in zip(self._vertices, self._stars)
            for j in range(1, max((m for _, m in star), default=0) + 1)
        )
        return HbGraph(copies, [dict.fromkeys(e.numbered_copies().copies, 1) for e in self.edges])

    # -- adjacency ----------------------------------------------------------

    def are_k_adjacent(self, query: Multiset) -> bool:
        """True iff some hb-edge contains the queried multiset pointwise."""
        if query.universe != self._vertices:
            raise UniverseMismatch("query universe differs from vertex list")
        return any(e.includes(query) for e in self.edges)

    def are_estar_adjacent(self, vertices: Iterable[str], edge: int) -> bool:
        self._check_edge(edge)
        support = set(self.edges[edge].support())
        vs = list(vertices)
        for v in vs:
            self.vertex_index(v)
        return all(v in support for v in vs)

    def are_e_adjacent(self, query: Multiset, edge: int) -> bool:
        """True iff every queried vertex sits in the hb-edge with at least
        the queried multiplicity."""
        self._check_edge(edge)
        if query.universe != self._vertices:
            raise UniverseMismatch("query universe differs from vertex list")
        e = self.edges[edge]
        return all(0 < query.multiplicity(x) <= e.multiplicity(x) for x in query.support())

    def are_incident(self, i: int, j: int) -> bool:
        self._check_edge(i)
        self._check_edge(j)
        return bool(set(self.edges[i].support()) & set(self.edges[j].support()))
