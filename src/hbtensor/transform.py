"""Elementary hb-graph operations and m-uniformisation.

Uniformisation pads every hb-edge to the m-range r_H with null vertices so
that all edges share the same m-cardinality.  For an edge of m-cardinality c
over n original vertices, ``padding`` gives the closed form of each
approach as one run (first index, multiplicity, count): ``count``
consecutive null indices from ``first``, each at ``multiplicity``.  Null
tensor indices follow the original ones, so the run extends the edge's own
tensor key:

* ``straightforward``: one shared null vertex ``__N1`` (index n+1) with
  multiplicity r_H - c, the run (n+1, r_H - c, 1).
* ``silo``: the per-cardinality null vertex ``__Nc`` (index n+c) with
  multiplicity r_H - c, the run (n+c, r_H - c, 1).
* ``layered``: the cumulative null vertices ``__Lc`` .. ``__L{r_H-1}``
  (indices n+c .. n+r_H-1), each once, the run (n+c, 1, r_H - c).

An edge already at m-cardinality r_H gets no run.

These are what the paper's compositions of ``decompose``, ``dilatation``,
``y_complement``, ``vertex_increase`` and ``merge`` produce; ``uniformize``
and the tensor constructions apply the closed form directly.  Every output
edge carries the dilatation weight c_r = r_H / r of its level.  Output edge
i is input edge i followed by its padding: the tensor forgets edge
order, so ``uniformize`` keeps the input order rather than the level order
the composition yields.  The returned trace stores only the approach and
r_H; the null vertices are a closed form in (approach, r_H), derived by
``UniformisationTrace.null_vertices``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import (
    DomainError,
    EmptyEdge,
    EmptyEdgeFamily,
    NonPositiveC,
    NotNatural,
    RepeatedEdges,
    VertexCollision,
)
from .hbgraph import HbGraph, hb_sum
from .mset import Multiset, Rational, Universe, as_rational

STRAIGHTFORWARD = "straightforward"
SILO = "silo"
LAYERED = "layered"
APPROACHES = (STRAIGHTFORWARD, SILO, LAYERED)

RESERVED_PREFIX = "__"


class UniformisationTrace(NamedTuple):
    """What a tensor needs beside it to be read: the approach and r_H, from
    which the null vertices follow.  Edge i of the uniformized hb-graph is
    input edge i, so no edge map is stored."""

    approach: str
    r_h: int

    @property
    def n_a(self) -> int:
        """Number of null vertices: 1 for straightforward, r_H - 1 otherwise."""
        return 1 if self.approach == STRAIGHTFORWARD else self.r_h - 1

    @property
    def null_vertices(self) -> tuple[str, ...]:
        """Null-vertex ids in tensor-index order: item k-1 has index n+k."""
        prefix = "__L" if self.approach == LAYERED else "__N"
        return tuple(f"{prefix}{k}" for k in range(1, self.n_a + 1))


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
    edges = [Multiset(vertices, {**e.mult, y: multiplicity(e)}) for e in h.edges]
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
    if not h.edges:
        return ()
    r_h = h.m_range()
    levels = []
    for r in range(1, r_h + 1):
        picked = [i for i, e in enumerate(h.edges) if e.m_cardinality() == r]
        weights = [h.weight(i) for i in picked] if h.weights is not None else None
        levels.append(HbGraph(h.vertices, [h.edges[i] for i in picked], weights))
    return tuple(levels)


def _uniformisation_trace(h: HbGraph, approach: str) -> UniformisationTrace:
    """Validate the input of a uniformisation and describe its output."""
    if approach not in APPROACHES:
        raise DomainError(f"unknown approach {approach!r}; expected one of {APPROACHES}")
    if not h.edges:
        raise EmptyEdgeFamily("uniformisation needs at least one hb-edge")
    if not h.is_natural():
        raise NotNatural("uniformisation needs integer multiplicities")
    if h.has_empty_edges():
        raise EmptyEdge("uniformisation forbids empty hb-edges")
    if not h.no_repeated_edges():
        raise RepeatedEdges("uniformisation forbids repeated hb-edges")
    return UniformisationTrace(approach, h.m_range())


def padding(approach: str, n: int, r_h: int, c: int) -> tuple[tuple[int, int, int], ...]:
    """The null-vertex padding of an edge of m-cardinality c, as a tuple of
    at most one run (first index, multiplicity, count): ``count`` consecutive
    indices from ``first``, each at ``multiplicity`` (module docstring).

    The indices are those of the e-adjacency tensor (n original vertices
    first, 1-based), so the run follows any original-vertex key; an edge
    already at m-cardinality r_H gets none.
    """
    if c == r_h:
        return ()
    if approach == STRAIGHTFORWARD:
        return ((n + 1, r_h - c, 1),)
    if approach == SILO:
        return ((n + c, r_h - c, 1),)
    return ((n + c, 1, r_h - c),)


def uniformize(h: HbGraph, approach: str) -> tuple[HbGraph, UniformisationTrace]:
    """Build the r_H-m-uniform weighted hb-graph for the given approach.

    Output edge i is input edge i plus its padding, with weight r_H / c_i.
    Input weights are ignored: the pipelines start from the unweighted
    structure and the output carries the dilatation coefficients.  User
    weights only enter at tensor-construction time.
    """
    trace = _uniformisation_trace(h, approach)
    # only here are null vertices named, so only here is their prefix reserved
    for v in h.vertices:
        if isinstance(v, str) and v.startswith(RESERVED_PREFIX):
            raise VertexCollision(f"vertex id {v!r} uses the reserved prefix '__'")
    vertices = Universe(h.vertices + trace.null_vertices)
    edges = []
    weights = []
    for e in h.edges:
        counts = e.mult
        c = e.m_cardinality()
        # tensor index j names vertex j of the padded vertex list
        for first, m, k in padding(approach, h.n, trace.r_h, c):
            counts.update((vertices[j - 1], m) for j in range(first, first + k))
        edges.append(Multiset(vertices, counts))
        weights.append(Fraction(trace.r_h, c))
    return HbGraph(vertices, edges, weights), trace
