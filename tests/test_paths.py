from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest

from hbtensor import (
    LARGE,
    STRICT,
    HbGraph,
    InvalidPath,
    MPath,
    connected_components,
    count_paths,
    diameter,
    distance,
    interior_choices,
    is_connected,
    validate_path,
)
from hbtensor.errors import UnknownEdge, UnknownVertex
from randgen import random_hbgraph


def test_validate(demo):
    assert validate_path(demo, MPath(("v1", "v5", "v3"), (0, 2), STRICT))
    assert not validate_path(demo, MPath(("v1", "v2", "v3"), (0, 1), STRICT))
    assert validate_path(demo, MPath(("v1", "v4"), (0,), STRICT))
    with pytest.raises(UnknownVertex):
        validate_path(demo, MPath(("v1", "zz"), (0,), STRICT))
    with pytest.raises(UnknownEdge):
        validate_path(demo, MPath(("v1", "v4"), (9,), STRICT))


def test_unknown_ids_are_named_in_the_message(demo):
    with pytest.raises(UnknownVertex, match="^unknown vertex 'zz'$"):
        validate_path(demo, MPath(("v1", "zz"), (0,), STRICT))
    with pytest.raises(UnknownEdge, match="^unknown hb-edge 9$"):
        validate_path(demo, MPath(("v1", "v4"), (9,), STRICT))
    with pytest.raises(UnknownEdge, match="^unknown hb-edge 4$"):
        demo.weight(4)


def test_count(demo):
    strict = MPath(("v1", "v5", "v3"), (0, 2), STRICT)
    large = MPath(("v1", "v5", "v3"), (0, 2), LARGE)
    assert count_paths(demo, strict) == 2  # 2 * min(1,2) * 1
    assert count_paths(demo, large) == 4  # 2 * max(1,2) * 1
    assert interior_choices(demo, strict) == 1
    assert interior_choices(demo, large) == 2
    hypergraph = HbGraph.from_dicts(("a", "b", "c"), [{"a": 1, "b": 1}, {"b": 1, "c": 1}])
    assert count_paths(hypergraph, MPath(("a", "b", "c"), (0, 1), STRICT)) == 1
    with pytest.raises(InvalidPath):
        count_paths(demo, MPath(("v1", "v2", "v3"), (0, 1), STRICT))


def test_malformed_alternation_is_refused_at_construction():
    with pytest.raises(InvalidPath, match="unknown path kind 'loose'"):
        MPath(("v1", "v4"), (0,), "loose")
    for vertices, edges in ((("v1",), ()), (("v1", "v2", "v3"), (0,)), (("v1",), (0,))):
        with pytest.raises(InvalidPath, match="s >= 1 edges and s \\+ 1 vertices"):
            MPath(vertices, edges)
    path = MPath(("v1", "v5", "v3"), (0, 2))
    assert path.kind == STRICT and path.length == 2
    with pytest.raises(AttributeError):
        path.kind = LARGE


def test_replace_checks_the_new_alternation():
    path = MPath(("v1", "v5", "v3"), (0, 2))
    assert path._replace(kind=LARGE) == MPath(("v1", "v5", "v3"), (0, 2), LARGE)
    with pytest.raises(InvalidPath):
        path._replace(kind="loose")
    with pytest.raises(InvalidPath):
        path._replace(edge_indices=(0,))


def test_strict_at_most_large(demo):
    rng = random.Random(3)
    for _ in range(20):
        h = random_hbgraph(rng, n_max=5, p_max=4, mult_max=3)
        for alternation in _valid_alternations(h, max_length=2):
            strict = MPath(alternation[0], alternation[1], STRICT)
            large = MPath(alternation[0], alternation[1], LARGE)
            if validate_path(h, strict):
                assert count_paths(h, strict) <= count_paths(h, large)


def test_closed_classification(demo):
    assert MPath(("v1", "v5", "v1"), (0, 0), STRICT).is_closed()
    assert not MPath(("v1", "v5"), (0,), STRICT).is_closed()


def test_distance(demo):
    assert distance(demo, "v1", "v2") == 3
    assert distance(demo, "v2", "v1") == 3
    assert distance(demo, "v1", "v1") == 0
    assert distance(demo, "v1", "v6") == math.inf
    assert distance(demo, "v1", "v7") == math.inf


def test_components_and_diameter(demo, trivial):
    assert connected_components(demo) == (
        ("v1", "v2", "v3", "v4", "v5"),
        ("v6",),
        ("v7",),
    )
    assert not is_connected(demo)
    assert diameter(demo) == math.inf
    assert connected_components(trivial) == (("a",), ("b",))
    core = HbGraph.from_dicts(
        ("v1", "v2", "v3", "v4", "v5"),
        [{"v1": 2, "v4": 2, "v5": 1}, {"v2": 3, "v3": 1}, {"v3": 1, "v5": 2}],
    )
    assert is_connected(core)
    assert diameter(core) == 3


def test_distance_symmetry_and_triangle():
    rng = random.Random(5)
    for _ in range(15):
        h = random_hbgraph(rng, n_max=6, p_max=5, mult_max=3)
        table = {
            (x, y): distance(h, x, y) for x in h.vertices for y in h.vertices
        }
        for x in h.vertices:
            for y in h.vertices:
                assert table[x, y] == table[y, x]
                for z in h.vertices:
                    if table[x, z] != math.inf and table[z, y] != math.inf:
                        assert table[x, y] <= table[x, z] + table[z, y]


# -- brute-force oracle over the numbered-copy hypergraph --------------------


def _valid_alternations(h: HbGraph, max_length: int):
    """All (vertices, edge_indices) alternations valid as large m-paths."""
    out = []
    for s in range(1, max_length + 1):
        for edge_seq in itertools.product(range(h.p), repeat=s):
            edges = [h.edges[i] for i in edge_seq]
            slots = [edges[0].support()]
            for k in range(1, s):
                slots.append(edges[k - 1].union(edges[k]).support())
            slots.append(edges[-1].support())
            for vertex_seq in itertools.product(*slots):
                out.append((tuple(vertex_seq), tuple(edge_seq)))
    return out


def brute_force_count(h: HbGraph, path: MPath) -> int:
    """Count copy-level paths by enumerating copy-vertex choices."""
    copy_edges = [set(e.support()) for e in h.numbered_copy_hypergraph().edges]
    pools = [copy_edges[i] for i in path.edge_indices]
    slots = [pools[0]]
    for k in range(1, path.length):
        joined = pools[k - 1] & pools[k] if path.kind == STRICT else pools[k - 1] | pools[k]
        slots.append(joined)
    slots.append(pools[-1])
    total = 1
    for v, pool in zip(path.vertices, slots):
        total *= sum(1 for copy in pool if copy[0] == v)
    return total


def test_count_matches_copy_enumeration():
    rng = random.Random(11)
    checked = 0
    for _ in range(12):
        h = random_hbgraph(rng, n_max=5, p_max=4, mult_max=3)
        for vertices, edge_seq in _valid_alternations(h, max_length=3):
            for kind in (STRICT, LARGE):
                path = MPath(vertices, edge_seq, kind)
                if not validate_path(h, path):
                    continue
                assert count_paths(h, path) == brute_force_count(h, path)
                checked += 1
    assert checked > 500


def union_find_components(h: HbGraph) -> tuple[tuple[str, ...], ...]:
    """Reference: union-find over the edge supports, grouped in vertex-list order."""
    parent = {v: v for v in h.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in h.edges:
        support = e.support()
        for u in support[1:]:
            parent[find(u)] = find(support[0])
    groups: dict[str, list[str]] = {}
    for v in h.vertices:
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(g) for g in groups.values())


def test_components_match_union_find():
    rng = random.Random(23)
    # one edge plus thousands of isolated vertices, listed in shuffled order
    names = [f"x{i}" for i in range(3000)]
    rng.shuffle(names)
    lone = HbGraph.from_dicts(names, [{names[1700]: 2, names[5]: 1}])
    components = connected_components(lone)
    assert len(components) == 2999
    assert components == union_find_components(lone)
    assert components[0] == (names[0],) and (names[5], names[1700]) in components
    # a few larger components among isolated vertices
    triples = [
        {names[i]: 1, names[i + 400]: 1, names[i + 2000]: 3} for i in range(0, 400, 7)
    ]
    spread = HbGraph.from_dicts(names, triples)
    assert connected_components(spread) == union_find_components(spread)
    for _ in range(40):
        h = random_hbgraph(rng, n_max=12, p_max=6, mult_max=3)
        assert connected_components(h) == union_find_components(h)
        assert is_connected(h) == (len(union_find_components(h)) <= 1)


# -- the one join rule against the join multisets -----------------------------


def join_reference(h: HbGraph, path: MPath):
    """Reference: (valid, interior choices, paths) from the intersection or
    union multisets of consecutive hb-edges."""
    edges = [h.edges[i] for i in path.edge_indices]
    joins = [
        a.intersection(b) if path.kind == STRICT else a.union(b)
        for a, b in zip(edges, edges[1:])
    ]
    first, last = path.vertices[0], path.vertices[-1]
    inner = list(zip(path.vertices[1:-1], joins))
    valid = first in edges[0] and last in edges[-1] and all(v in j for v, j in inner)
    if not valid:
        return False, None, None
    interior = math.prod(j.multiplicity(v) for v, j in inner)
    ends = edges[0].multiplicity(first) * edges[-1].multiplicity(last)
    return True, interior, interior * ends


def test_join_rule_matches_join_multisets():
    rng = random.Random(31)
    outcomes = Counter()
    for _ in range(300):
        h = random_hbgraph(rng, n_max=5, p_max=4, mult_max=4)
        length = rng.randint(1, 4)
        edge_seq = tuple(rng.randrange(h.p) for _ in range(length))
        vertices = tuple(rng.choice(h.vertices) for _ in range(length + 1))
        for kind in (STRICT, LARGE):
            path = MPath(vertices, edge_seq, kind)
            valid, interior, total = join_reference(h, path)
            assert validate_path(h, path) is valid
            if valid:
                assert interior_choices(h, path) == interior
                assert count_paths(h, path) == total
            else:
                with pytest.raises(InvalidPath):
                    count_paths(h, path)
                with pytest.raises(InvalidPath):
                    interior_choices(h, path)
            outcomes[kind, valid] += 1
    assert min(outcomes.values()) > 20  # both kinds, valid and invalid


def all_pairs_diameter(h: HbGraph):
    """Reference: the largest distance over all vertex pairs."""
    return max((distance(h, x, y) for x in h.vertices for y in h.vertices), default=0)


def test_diameter_matches_all_pairs_bfs():
    rng = random.Random(37)
    seen = Counter()
    for _ in range(80):
        h = random_hbgraph(rng, n_max=8, p_max=8, mult_max=3)
        expected = all_pairs_diameter(h)
        assert diameter(h) == expected
        seen[expected == math.inf] += 1
    # a path through every vertex is connected, with diameter n - 1
    for n in range(1, 7):
        names = [f"x{i}" for i in range(n)]
        chain = HbGraph.from_dicts(names, [{a: 1, b: 2} for a, b in zip(names, names[1:])])
        assert diameter(chain) == all_pairs_diameter(chain) == n - 1
    assert diameter(HbGraph(())) == all_pairs_diameter(HbGraph(())) == 0
    assert seen[True] > 10 and seen[False] > 10
