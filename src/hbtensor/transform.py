"""m-uniformisation in closed form.

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
``y_complement``, ``vertex_increase`` and ``merge`` produce; those
elementary operations live in ``algebra``, and ``uniformize`` and the tensor
constructions apply the closed form directly.  Every output
edge carries the dilatation weight c_r = r_H / r of its level.  Output edge
i is input edge i followed by its padding: the tensor forgets edge
order, so ``uniformize`` keeps the input order rather than the level order
the composition yields.  The returned trace stores only the approach and
r_H; the null vertices are a closed form in (approach, r_H), derived by
``UniformisationTrace.null_vertices``.

``MAX_INDICES`` bounds what any stage spells out one item at a time: the
indices of a dense or full tensor export, the rows of a row-sum vector and
the vertex names of a uniformized hb-graph.  ``_limit`` refuses a count past
it, naming the count and the limit, before any of it is built.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .errors import (
    DomainError,
    EmptyEdge,
    EmptyEdgeFamily,
    NotNatural,
    RepeatedEdges,
    VertexCollision,
)
from .hbgraph import HbGraph, Universe, _ratio
from .io import format_rational

STRAIGHTFORWARD = "straightforward"
SILO = "silo"
LAYERED = "layered"
APPROACHES = (STRAIGHTFORWARD, SILO, LAYERED)

RESERVED_PREFIX = "__"

# the most indices, rows or vertex names a stage spells out: a full COO export
# of order <= 10 within its record limit fits
MAX_INDICES = 10**8


def _limit(count: int, what: str) -> None:
    """Refuse, with ``DomainError``, a ``count`` past ``MAX_INDICES``, named by
    ``what`` with ``{}`` for the count; one too long to print refuses as such."""
    if count > MAX_INDICES:
        raise DomainError(f"{what.format(format_rational(count))} (limit {MAX_INDICES})")


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


def _uniformisation_trace(h: HbGraph, approach: str) -> UniformisationTrace:
    """Validate the input of a uniformisation and describe its output."""
    if approach not in APPROACHES:
        raise DomainError(f"unknown approach {approach!r}; expected one of {APPROACHES}")
    if not h.p:
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
    _limit(h.n + trace.n_a, "uniformize would name {} vertices")
    vertices = Universe(h.vertices + trace.null_vertices)
    # tensor index j names vertex j of the padded vertex list
    padded = (chain(key, padding(approach, h.n, trace.r_h, c)) for key, c in zip(h._keys, h._cards))
    edges = [{vertices[j - 1]: m for i, m, k in runs for j in range(i, i + k)} for runs in padded]
    return HbGraph(vertices, edges, [_ratio(trace.r_h, c) for c in h._cards]), trace
