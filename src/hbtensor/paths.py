"""Distance, connectivity and diameter: what the ``paths`` verb runs.

Distance is computed on the supports: a strict m-path exists between two
vertices exactly when a support path does.  Distance, components and
diameter share one breadth-first search over the hb-stars, from a vertex to
each hb-edge of its star and on to that edge's support.  Each hb-edge is
expanded at most once per search, so a search costs O(n + p + Σ|supp e|).
The m-paths themselves (``MPath``), their validation and the count of
copy-level paths along an alternation live in ``algebra``.
"""

from __future__ import annotations

import math

from .hbgraph import HbGraph


def _supports(h: HbGraph) -> list[list[int]]:
    """Each hb-edge's support as vertex positions."""
    return [[i - 1 for i, _, _ in key] for key in h._keys]


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
