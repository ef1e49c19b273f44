"""Hyper-bag-graphs: ordered families of multisets over a shared vertex set.

An hb-graph generalizes a hypergraph by letting each edge be a multiset
(hb-edge) over the vertex universe.  The edge family is ordered and may
contain repeats; an edge's identity is its index.  Instances are immutable
and all queries are read-only.

The vertex list is the graph's only vertex -> position table: it is a
``Universe`` that every hb-edge built by this package shares.  Construction
makes one pass over the edge supports to build each vertex's hb-star, its
(edge index, multiplicity) pairs, so m-degree, degree and maximal
multiplicity cost O(degree) per vertex and the order O(n + sum of degrees).
The hb-stars are the graph's one incidence structure, the rows of its
incidence matrix [m_{e_j}(v_i)] without their zeros: the tensor keys, the
weighted degrees ``verify`` checks, the incidence CSV and
``incidence_matrix`` all read them.

A hypergraph is an hb-graph whose multiplicities are in {0, 1}, so the
derived hypergraphs (the support hypergraph, the numbered-copy hypergraph)
are ``HbGraph``s too, and every hb-graph, path and tensor function takes them.
The operations derived from hb-graphs that no command-line verb runs, the
2-section, the hb-sum and the directness test, live in ``algebra``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from .errors import (
    DomainError,
    EmptyEdgeFamily,
    NotNatural,
    UniverseMismatch,
    UnknownEdge,
    UnknownVertex,
)
from .mset import Multiset, Rational, Universe, as_rational


class HbGraph:
    """Immutable hb-graph: vertex list, ordered hb-edge family, optional weights."""

    __slots__ = ("_vertices", "_edges", "_weights", "_stars", "_edge_ids")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[Multiset] = (),
        weights: Sequence[Rational] | None = None,
    ):
        vs = vertices if isinstance(vertices, Universe) else Universe(vertices)
        es = tuple(edges)
        for e in es:
            if e.universe is not vs and e.universe != vs:
                raise UniverseMismatch("edge universe differs from vertex list")
        ws: tuple[Rational, ...] | None = None
        if weights is not None:
            ws = tuple(as_rational(w) for w in weights)
            if len(ws) != len(es):
                raise DomainError("one weight per hb-edge required")
            if any(w <= 0 for w in ws):
                raise DomainError("weights must be positive")
        stars: list[list[tuple[int, Rational]]] = [[] for _ in vs]
        for j, e in enumerate(es):
            for x, m in e.mult.items():
                stars[vs.position[x]].append((j, m))
        object.__setattr__(self, "_vertices", vs)
        object.__setattr__(self, "_edges", es)
        object.__setattr__(self, "_weights", ws)
        object.__setattr__(self, "_stars", stars)
        object.__setattr__(self, "_edge_ids", None)

    def __setattr__(self, name, value):
        raise AttributeError("HbGraph is immutable")

    @classmethod
    def from_dicts(
        cls,
        vertices: Iterable[str],
        edges: Iterable[Mapping[str, Rational]],
        weights: Sequence[Rational] | None = None,
    ) -> "HbGraph":
        vs = Universe(vertices)
        return cls(vs, [Multiset(vs, m) for m in edges], weights)

    # -- structure ----------------------------------------------------------

    @property
    def vertices(self) -> Universe:
        return self._vertices

    @property
    def edges(self) -> tuple[Multiset, ...]:
        return self._edges

    @property
    def weights(self) -> tuple[Rational, ...] | None:
        return self._weights

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def p(self) -> int:
        return len(self._edges)

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
        if not 0 <= i < len(self._edges):
            raise UnknownEdge(f"unknown hb-edge {i}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, HbGraph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._edges == other._edges
            and self._weights == other._weights
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges, self._weights))

    def __repr__(self) -> str:
        return f"HbGraph(n={self.n}, p={self.p}, weighted={self._weights is not None})"

    def is_natural(self) -> bool:
        return all(e.natural for e in self._edges)

    def no_repeated_edges(self) -> bool:
        return len(set(self._edges)) == len(self._edges)

    def has_empty_edges(self) -> bool:
        return any(e.is_empty() for e in self._edges)

    def edge_counter(self) -> Counter:
        """Edge family as a multiset, for order-insensitive comparison."""
        return Counter(self._edges)

    # -- metrics ------------------------------------------------------------

    def max_multiplicity(self, v: str) -> Rational:
        """Maximum multiplicity of ``v`` over all hb-edges."""
        return max((m for _, m in self._star(v)), default=0)

    def order(self) -> Rational:
        return sum(max((m for _, m in star), default=0) for star in self._stars)

    def size(self) -> int:
        return len(self._edges)

    def isolated_vertices(self) -> tuple[str, ...]:
        return tuple(v for v, star in zip(self._vertices, self._stars) if not star)

    def m_degree(self, v: str) -> Rational:
        return sum(m for _, m in self._star(v))

    def degree(self, v: str) -> int:
        """Degree in the support hypergraph."""
        return len(self._star(v))

    def hb_star(self, v: str) -> Multiset:
        """Multiset of incident edge indices, each with multiplicity m_e(v)."""
        star = self._star(v)
        if self._edge_ids is None:
            object.__setattr__(self, "_edge_ids", Universe(range(len(self._edges))))
        return Multiset(self._edge_ids, dict(star))

    def m_range(self) -> Rational:
        if not self._edges:
            raise EmptyEdgeFamily("m-range of an empty edge family")
        return max(e.m_cardinality() for e in self._edges)

    def m_corange(self) -> Rational:
        if not self._edges:
            raise EmptyEdgeFamily("m-co-range of an empty edge family")
        return min(e.m_cardinality() for e in self._edges)

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
        vs = self._vertices
        return HbGraph(vs, [Multiset(vs, dict.fromkeys(e.support(), 1)) for e in self._edges])

    def dual(self) -> "HbGraph":
        """Dual hb-graph: one vertex per hb-edge, one hb-edge per vertex.

        Weights are dropped; isolated vertices become empty dual edges.
        """
        dual_vertices = Universe(f"~e{i + 1}" for i in range(len(self._edges)))
        dual_edges = [
            Multiset(dual_vertices, {dual_vertices[j]: m for j, m in star})
            for star in self._stars
        ]
        return HbGraph(dual_vertices, dual_edges)

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
        return HbGraph(
            copies,
            [Multiset(copies, dict.fromkeys(e.numbered_copies().copies, 1)) for e in self._edges],
        )

    # -- adjacency ----------------------------------------------------------

    def are_k_adjacent(self, query: Multiset) -> bool:
        """True iff some hb-edge contains the queried multiset pointwise."""
        if query.universe != self._vertices:
            raise UniverseMismatch("query universe differs from vertex list")
        return any(e.includes(query) for e in self._edges)

    def are_estar_adjacent(self, vertices: Iterable[str], edge: int) -> bool:
        self._check_edge(edge)
        support = set(self._edges[edge].support())
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
        e = self._edges[edge]
        return all(0 < query.multiplicity(x) <= e.multiplicity(x) for x in query.support())

    def are_incident(self, i: int, j: int) -> bool:
        self._check_edge(i)
        self._check_edge(j)
        return bool(set(self._edges[i].support()) & set(self._edges[j].support()))
