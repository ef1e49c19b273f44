"""The paper's constructions that no command-line verb runs.

The verbs compute with closed forms: ``transform.padding`` in place of the
composition of elementary operations that uniformises an hb-graph,
``tensor.e_adjacency_tensor`` in place of a sum of elementary tensors, and a
breadth-first search over the hb-stars in place of m-paths.  This module
keeps the paper's own definitions beside them:

* ``Multiset``, an immutable multiset over an ordered ``Universe``, with
  its pointwise algebra; ``HbGraph.edges`` views an hb-graph's edges as
  ``Multiset``s, whose checks are the graph's own (``hbgraph._checked``);
* the hb-graph operations ``two_section``, ``hb_sum`` and ``is_direct``;
* the elementary operations whose composition the closed-form padding
  reproduces: ``canonical_weighting``, ``dilatation``, ``y_complement``,
  ``vertex_increase``, ``merge`` (the hb-sum of a family) and ``decompose``;
* m-paths: an ``MPath`` alternates vertices and hb-edges, and its interior
  vertices must lie in the support of the intersection (strict) or union
  (large) of the two surrounding hb-edges; one join rule, the min or max of
  the two surrounding multiplicities, validates an alternation and counts
  its copy-level paths;
* the multiset hypermatrix, the elementary, uniform and hypergraph tensors,
  and ``HbPolynomial``, which ``SymTensor.polynomial`` returns;
* retrieval beyond what ``verify`` checks: the hb-edge distribution and the
  reconstructed hb-graph.

No verb imports this module, so no command-line run compiles it.  Its public
names resolve at the package root like every other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyEdge,
    EmptyEdgeFamily,
    EmptyMultiset,
    InvalidPath,
    NonPositiveC,
    NotAHypergraph,
    NotNatural,
    NotUniform,
    RepeatedEdges,
    TraceMismatch,
    UniverseMismatch,
    VertexCollision,
)
from .hbgraph import HbGraph, Rational, Universe, _checked, as_rational
from .tensor import (
    Runs,
    SymTensor,
    _edge_keys,
    _level_weights,
    _multinomial,
    _shown,
    e_adjacency_tensor,
    reconstruct_edges,
)
from .transform import SILO, UniformisationTrace


# -- multisets ---------------------------------------------------------------


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
        # canonical key order = universe order
        ordered = {uni[k]: v for k, v in _checked(uni.position, mult or {})}
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


# -- hb-graph operations ----------------------------------------------------


def two_section(h: HbGraph) -> tuple[tuple[str, str], ...]:
    """Edges of the 2-section graph: pairs co-occurring in some hb-edge's support.

    Undirected, deduplicated, no self-loops; pairs and the result follow the
    vertex-list order, which every support already keeps.
    """
    vs = h.vertices
    pairs = {ij for key in h._keys for ij in combinations([i for i, _, _ in key], 2)}
    return tuple((vs[i - 1], vs[j - 1]) for i, j in sorted(pairs))


def hb_sum(*graphs: HbGraph) -> HbGraph:
    """Sum of hb-graphs: ordered union of the vertex sets, concatenated edge
    families; weighted (default weight 1) when any summand is."""
    vertices = Universe(dict.fromkeys(v for h in graphs for v in h.vertices))
    edges = [e.mult for h in graphs for e in h.edges]
    weights = None
    if any(h.weights is not None for h in graphs):
        weights = [h.weight(i) for h in graphs for i in range(h.p)]
    return HbGraph(vertices, edges, weights)


def is_direct(h1: HbGraph, h2: HbGraph) -> bool:
    """True iff summing creates no repeated-edge pair across the two families."""
    total = hb_sum(h1, h2)
    first = total.edges[: h1.p]
    second = total.edges[h1.p :]
    return not (set(first) & set(second))


# -- uniformisation as a composition of elementary operations ---------------


def canonical_weighting(h: HbGraph) -> HbGraph:
    """Set every edge weight to 1."""
    return HbGraph(h.vertices, h.edges, [1] * h.p)


def dilatation(h: HbGraph, c: Rational) -> HbGraph:
    """Multiply all edge weights by the constant c > 0."""
    c = as_rational(c)
    if c <= 0:
        raise NonPositiveC(f"dilatation constant must be positive, got {c}")
    return HbGraph(h.vertices, h.edges, [h.weight(i) * c for i in range(h.p)])


def _with_vertex(h: HbGraph, y: str, multiplicity) -> HbGraph:
    """Append vertex y to every edge e with multiplicity ``multiplicity(e)``."""
    vertices = Universe(h.vertices + (y,))
    edges = [{**e.mult, y: multiplicity(e)} for e in h.edges]
    return HbGraph(vertices, edges, h.weights)


def y_complement(h: HbGraph, y: str) -> HbGraph:
    """Append vertex y to every edge with multiplicity r_H - m-cardinality."""
    if y in h.vertices.position:
        raise VertexCollision(y)
    if not h.is_natural():
        raise NotNatural("y-complement needs integer multiplicities")
    if not h.edges:
        raise EmptyEdgeFamily("y-complement needs at least one hb-edge")
    r_h = h.m_range()
    return _with_vertex(h, y, lambda e: r_h - e.m_cardinality())


def vertex_increase(h: HbGraph, y: str, alpha: int) -> HbGraph:
    """Append vertex y to every edge with the fixed multiplicity alpha."""
    if y in h.vertices.position:
        raise VertexCollision(y)
    if not isinstance(alpha, int) or alpha < 1:
        raise DomainError(f"alpha must be a positive integer, got {alpha!r}")
    return _with_vertex(h, y, lambda e: alpha)


def merge(family: Iterable[HbGraph]) -> HbGraph:
    """Concatenate edge families over the ordered union of the vertex sets
    (the hb-sum of the family)."""
    return hb_sum(*family)


def decompose(h: HbGraph) -> tuple[HbGraph, ...]:
    """Split into sub-hb-graphs by m-cardinality.

    Position r - 1 of the result holds the r-m-uniform part (possibly with an
    empty edge family); concatenating all parts recovers the input up to edge
    order within levels.
    """
    if not h.is_natural():
        raise NotNatural("decomposition needs integer multiplicities")
    if h.has_empty_edges():
        raise EmptyEdge("decomposition forbids empty hb-edges")
    if not h.p:
        return ()
    r_h = h.m_range()
    levels = []
    for r in range(1, r_h + 1):
        picked = [i for i, c in enumerate(h._cards) if c == r]
        weights = [h.weight(i) for i in picked] if h.weights is not None else None
        levels.append(HbGraph(h.vertices, [h.edges[i] for i in picked], weights))
    return tuple(levels)


# -- m-paths and path counting ----------------------------------------------


STRICT = "strict"
LARGE = "large"


class _MPathFields(NamedTuple):
    vertices: tuple[str, ...]
    edge_indices: tuple[int, ...]
    kind: str = STRICT


class MPath(_MPathFields):
    """Alternation x_0, e_1, x_1, ..., e_s, x_s with s = len(edge_indices)."""

    __slots__ = ()

    def __new__(cls, vertices, edge_indices, kind=STRICT):
        if kind not in (STRICT, LARGE):
            raise InvalidPath(f"unknown path kind {kind!r}")
        if len(vertices) != len(edge_indices) + 1 or not edge_indices:
            raise InvalidPath("alternation needs s >= 1 edges and s + 1 vertices")
        return super().__new__(cls, vertices, edge_indices, kind)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    @property
    def length(self) -> int:
        return len(self.edge_indices)

    def is_closed(self) -> bool:
        """Extremities name the same original vertex (cycle or almost-cycle;
        the copy-level distinction is not representable here)."""
        return self.vertices[0] == self.vertices[-1]


def _check_ids(h: HbGraph, path: MPath) -> None:
    for v in path.vertices:
        h.vertex_index(v)
    for i in path.edge_indices:
        h._check_edge(i)


def _choices(h: HbGraph, path: MPath) -> list:
    """Multiplicity bounding the copy choices of each vertex of the path: in
    its edge at an extremity, in the strict (min) or large (max) join of the
    two surrounding edges inside.  The path is valid when none is zero."""
    _check_ids(h, path)
    edges = [h.edges[i] for i in path.edge_indices]
    join = min if path.kind == STRICT else max
    inner = [
        join(edges[k - 1].multiplicity(v), edges[k].multiplicity(v))
        for k, v in enumerate(path.vertices[1:-1], 1)
    ]
    first, last = path.vertices[0], path.vertices[-1]
    return [edges[0].multiplicity(first), *inner, edges[-1].multiplicity(last)]


def validate_path(h: HbGraph, path: MPath) -> bool:
    """Check the membership conditions of the alternation for its kind."""
    return all(_choices(h, path))


def interior_choices(h: HbGraph, path: MPath) -> int:
    """Number of copy choices for the interior vertices alone."""
    return _count(h, path, interior_only=True)


def count_paths(h: HbGraph, path: MPath) -> int:
    """Number of distinct copy-level paths along the given alternation."""
    return _count(h, path, interior_only=False)


def _count(h: HbGraph, path: MPath, interior_only: bool) -> int:
    if not h.is_natural():
        raise NotNatural("path counting needs integer multiplicities")
    choices = _choices(h, path)
    if not all(choices):
        raise InvalidPath("alternation fails the membership conditions")
    return math.prod(choices[1:-1] if interior_only else choices)


# -- multiset, elementary, uniform and hypergraph tensors; the polynomial ---


class HbPolynomial(NamedTuple):
    """Polynomial attached to a tensor, as monomial -> coefficient, each
    monomial a tensor's run key: runs (first, exponent, count) of ``count``
    consecutive indices, each at that exponent."""

    degree: int
    dim: int
    monomials: Mapping[Runs, Rational]

    def evaluate(self, z: Sequence) -> Rational:
        """P(z) as an ``as_rational`` number, at O(sum of the monomials'
        indices), one power per run."""
        if len(z) != self.dim:
            raise DimensionMismatch(f"vector length {len(z)} != dim {self.dim}")
        return as_rational(
            sum(
                c * math.prod(math.prod(z[i - 1 : i - 1 + k]) ** m for i, m, k in runs)
                for runs, c in self.monomials.items()
            )
        )


def _polynomial(t: SymTensor) -> HbPolynomial:
    """``t.polynomial()``: one monomial per entry, keyed by its run key, with
    coefficient r * share."""
    r = t.order
    monomials = {runs: as_rational(r * share) for runs, share in t._entries.items()}
    return HbPolynomial(degree=r, dim=t.dim, monomials=monomials)


def mset_hypermatrix(a: Multiset, normalized: bool) -> SymTensor:
    """Hypermatrix representation of a natural multiset.

    Unnormalized: value 1 on every permutation of the support indices taken
    with their multiplicities (share multinomial / r).  Normalized: value
    (prod of multiplicity factorials) / (r-1)! on the same tuples (share 1),
    which makes the logical total equal the m-cardinality r.
    """
    if not a.natural:
        x = next(x for x, v in a.mult.items() if not isinstance(v, int))
        raise NotNatural(f"non-integer multiplicity for {x!r}")
    if a.is_empty():
        raise EmptyMultiset("hypermatrix representation of an empty multiset")
    r = a.m_cardinality()
    (runs,) = _edge_keys(HbGraph(a.universe, [a]), SILO, r)  # at c = r, no padding
    share = 1 if normalized else as_rational(Fraction(_multinomial(runs), r))
    return SymTensor._from_shares(r, len(a.universe), [(runs, share)])


def elementary_tensor(h: HbGraph) -> SymTensor:
    """Normalized adjacency hypermatrix of a single-edge hb-graph."""
    if h.p != 1:
        raise DomainError("elementary hb-graph must have exactly one hb-edge")
    return mset_hypermatrix(h.edges[0], normalized=True)


def uniform_tensor(h: HbGraph) -> SymTensor:
    """Adjacency hypermatrix of a k-m-uniform hb-graph (sum of elementary ones).

    Weights are ignored; the weighted variant is the e-adjacency tensor.
    """
    if not h.edges:
        raise EmptyEdgeFamily("uniform tensor needs at least one hb-edge")
    if not h.is_natural():
        raise NotNatural("uniform tensor needs integer multiplicities")
    if not h.no_repeated_edges():
        raise RepeatedEdges("uniform tensor forbids repeated hb-edges")
    k = h.m_range()
    if k != h.m_corange():
        raise NotUniform("hb-edges have differing m-cardinalities")
    if k == 0:
        raise EmptyEdge("uniform tensor forbids empty hb-edges")
    # every hb-edge is at m-cardinality k, so no key is padded
    return SymTensor._from_shares(k, h.n, [(key, 1) for key in _edge_keys(h, SILO, k)])


def hypergraph_tensor(hg: HbGraph) -> tuple[SymTensor, UniformisationTrace]:
    """e-adjacency tensor of a hypergraph (all multiplicities in {0, 1}).

    This is the silo construction on {0, 1} inputs: a hyperedge of
    cardinality k gets the index multiset of its vertices plus the null index
    (n+k) repeated k_max - k times, with value (k_max - k)! / (k_max - 1)!.
    """
    if any(m != 1 for key in hg._keys for _, m, _ in key):
        raise NotAHypergraph("hyperedges must have multiplicities in {0, 1}")
    return e_adjacency_tensor(hg, SILO)


# -- information retrieval --------------------------------------------------


def edge_distribution(
    t: SymTensor, trace: UniformisationTrace, total_edges: int
) -> dict[int, Rational]:
    """The hb-edge distribution {c: W_c} at every level c whose W_c is
    nonzero, read off the tensor's entries and the trace alone, top level
    included.

    W_c is the summed weight of the m-cardinality-c hb-edges: their number
    when the graph is unweighted, the exact summed weight otherwise (edges
    ``{a}``, ``{a, b²}``, ``{c, d²}`` of weights 2, 1, 1 give ``{1: 2, 3: 2}``).
    ``total_edges`` only checks the tensor: an e-adjacency tensor holds one
    canonical entry per hb-edge, and each entry has an original-vertex index,
    so ``TraceMismatch`` is raised for another entry count or an entry of
    level 0.
    """
    levels = _level_weights(t, trace)
    if t.canonical_count() != total_edges:
        raise TraceMismatch(
            f"tensor holds {t.canonical_count()} canonical entries, not one per"
            f" hb-edge ({total_edges})"
        )
    n = t.dim - trace.n_a
    for runs in t._entries:
        if runs[0][0] > n:
            raise TraceMismatch(f"entry {_shown(runs)} has no original-vertex index")
    return levels


def reconstruct_hbgraph(
    t: SymTensor, trace: UniformisationTrace, vertices: Sequence[str]
) -> HbGraph:
    """Rebuild the (unweighted) hb-graph from a tensor and its trace."""
    family = reconstruct_edges(t, trace)
    n = t.dim - trace.n_a
    if len(vertices) != n:
        raise TraceMismatch(f"expected {n} vertex names, got {len(vertices)}")
    vs = Universe(vertices)
    return HbGraph(vs, [{vs[i - 1]: m for i, m in e.items()} for e in family])
