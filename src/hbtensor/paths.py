"""m-paths, path counting, distance and connectivity.

A path alternates vertices and hb-edges.  Interior vertices must lie in the
support of the intersection (strict) or union (large) of the two surrounding
hb-edges.  Distance is computed on the supports: a strict m-path exists
between two vertices exactly when a support path does.  Distance, components
and diameter share one breadth-first search over the hb-stars, from a vertex
to each hb-edge of its star and on to that edge's support.  Each hb-edge is
expanded at most once per search, so a search costs O(n + p + Σ|supp e|).
"""

from __future__ import annotations

import math
from typing import NamedTuple
from .errors import InvalidPath, NotNatural
from .hbgraph import HbGraph

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


def _supports(h: HbGraph) -> list[list[int]]:
    """Each hb-edge's support as vertex positions."""
    position = h.vertices.position
    return [[position[v] for v in e.support()] for e in h.edges]


def _search(h: HbGraph, supports, start: int, dist: list, used: list) -> list[int]:
    """Breadth-first search from position ``start``: marks each hb-edge of a
    reached vertex's star in ``used`` and reads its support once.  Sets
    ``dist`` (-1 while unreached); returns the positions in the order reached."""
    stars = h._stars
    dist[start] = 0
    order = [start]
    for u in order:
        d = dist[u] + 1
        for j, _ in stars[u]:
            if not used[j]:
                used[j] = True
                for w in supports[j]:
                    if dist[w] < 0:
                        dist[w] = d
                        order.append(w)
    return order


def distance(h: HbGraph, x: str, y: str):
    """Minimal m-path length between two vertices, or ``math.inf``."""
    start, end = h.vertex_index(x), h.vertex_index(y)
    dist = [-1] * h.n
    _search(h, _supports(h), start, dist, [False] * h.p)
    return dist[end] if dist[end] >= 0 else math.inf


def connected_components(h: HbGraph) -> tuple[tuple[str, ...], ...]:
    """Partition of the vertices into maximal mutually reachable sets.

    Isolated vertices form singleton components.  Components and their
    members follow the vertex-list order.  The searches share one ``dist``
    and one ``used`` array, so together they cost O(n + p + Σ|supp e|).
    """
    supports = _supports(h)
    dist = [-1] * h.n
    used = [False] * h.p
    return tuple(
        tuple(h.vertices[k] for k in sorted(_search(h, supports, s, dist, used)))
        for s in range(h.n)
        if dist[s] < 0
    )


def is_connected(h: HbGraph) -> bool:
    return len(connected_components(h)) <= 1


def diameter(h: HbGraph):
    """Largest pairwise distance;  ``math.inf`` as soon as two vertices are
    mutually unreachable (disconnected hb-graph or isolated vertex)."""
    supports = _supports(h)
    best = 0
    for s in range(h.n):
        dist = [-1] * h.n
        order = _search(h, supports, s, dist, [False] * h.p)
        if len(order) < h.n:
            return math.inf
        best = max(best, dist[order[-1]])
    return best
