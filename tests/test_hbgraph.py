from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hbtensor import (
    APPROACHES,
    DomainError,
    EmptyEdgeFamily,
    HbGraph,
    Multiset,
    NotNatural,
    UniverseMismatch,
    UnknownEdge,
    UnknownVertex,
    canonical_weighting,
    decompose,
    dilatation,
    e_adjacency_tensor,
    hb_sum,
    hypergraph_tensor,
    io,
    is_direct,
    merge,
    reconstruct_hbgraph,
    two_section,
    uniformize,
    vertex_increase,
    y_complement,
)
from randgen import random_hbgraph, random_uniform_hbgraph


def test_order_size(demo, trivial):
    assert demo.order() == 11
    assert demo.size() == 4
    assert trivial.order() == 0
    assert trivial.size() == 0
    single = HbGraph.from_dicts(("v1", "v2"), [{"v1": 2, "v2": 1}])
    assert single.order() == 3


def test_isolated_vertices(demo, trivial):
    assert demo.isolated_vertices() == ("v7",)
    assert trivial.isolated_vertices() == ("a", "b")
    covered = HbGraph.from_dicts(("a", "b"), [{"a": 1, "b": 2}])
    assert covered.isolated_vertices() == ()


def test_degrees(demo):
    assert [demo.m_degree(v) for v in demo.vertices] == [2, 3, 2, 2, 3, 1, 0]
    assert demo.m_degree("v5") == 3
    assert demo.degree("v3") == 2
    assert demo.m_degree("v7") == 0
    with pytest.raises(UnknownVertex):
        demo.m_degree("nope")


def test_max_multiplicity(demo):
    assert [demo.max_multiplicity(v) for v in demo.vertices] == [2, 3, 1, 2, 2, 1, 0]


def test_hb_star(demo):
    star5 = demo.hb_star("v5")
    assert dict(star5.mult) == {0: 1, 2: 2}
    assert demo.hb_star("v7").is_empty()
    assert dict(demo.hb_star("v2").mult) == {1: 3}
    for v in demo.vertices:
        star = demo.hb_star(v)
        assert star.m_cardinality() == demo.m_degree(v)
        assert star.cardinality() == demo.degree(v)


def test_range_uniform_regular(demo, trivial):
    assert demo.m_range() == 5
    assert demo.m_corange() == 1
    assert not any(demo.is_k_m_uniform(k) for k in range(1, 7))
    with pytest.raises(EmptyEdgeFamily):
        trivial.m_range()
    single = HbGraph.from_dicts(("a", "b"), [{"a": 2, "b": 1}])
    assert single.is_k_m_uniform(3)


def test_incidence_matrix(demo, trivial):
    rows = demo.incidence_matrix()
    assert rows == (
        (2, 0, 0, 0),
        (0, 3, 0, 0),
        (0, 1, 1, 0),
        (2, 0, 0, 0),
        (1, 0, 2, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
    )
    assert [sum(col) for col in zip(*rows)] == [e.m_cardinality() for e in demo.edges]
    assert [sum(row) for row in rows] == [demo.m_degree(v) for v in demo.vertices]
    # one empty row per vertex when there are no hb-edges, no row without vertices
    assert trivial.incidence_matrix() == ((), ())
    assert HbGraph((), [Multiset((), {}), Multiset((), {})]).incidence_matrix() == ()


def test_support_hypergraph(demo):
    sup = demo.support_hypergraph()
    assert sup.edges[0].support() == ("v1", "v4", "v5")
    assert sup.edges[3].support() == ("v6",)
    hg = HbGraph.from_dicts(("a", "b"), [{"a": 1, "b": 1}])
    assert [e.support() for e in hg.support_hypergraph().edges] == [("a", "b")]


def test_derived_hypergraphs_are_hbgraphs(demo):
    sup = demo.support_hypergraph()
    assert isinstance(sup, HbGraph) and sup.vertices is demo.vertices
    assert sup.weights is None
    assert [e.cardinality() for e in sup.edges] == [e.m_cardinality() for e in sup.edges]
    t, _ = hypergraph_tensor(sup)
    assert (t.order, t.dim, t.canonical_count()) == (3, 9, 4)
    # a hypergraph is its own support hypergraph
    hg = HbGraph.from_dicts(("a", "b", "c"), [{"a": 1, "b": 1}, {"c": 1}])
    assert hg.support_hypergraph() == hg
    copies = demo.numbered_copy_hypergraph()
    assert isinstance(copies, HbGraph) and copies.weights is None
    assert copies.n == demo.order() == 11
    assert [e.cardinality() for e in copies.edges] == [5, 4, 3, 1]
    assert [e.m_cardinality() for e in copies.edges] == [
        e.m_cardinality() for e in demo.edges
    ]
    t, trace = hypergraph_tensor(copies)
    assert (t.order, t.dim, t.canonical_count()) == (5, 11 + 4, 4)
    assert trace.r_h == demo.m_range()
    rng = random.Random(14)
    for _ in range(30):
        h = random_hbgraph(rng)
        copies = h.numbered_copy_hypergraph()
        assert copies.n == h.order()
        assert [e.m_cardinality() for e in copies.edges] == [
            e.m_cardinality() for e in h.edges
        ]
        assert [e.support() for e in h.support_hypergraph().edges] == [
            e.support() for e in h.edges
        ]
        assert two_section(h) == two_section(h.support_hypergraph())


def test_numbered_copies_need_natural_multiplicities():
    h = HbGraph.from_dicts(("a", "b"), [{"a": Fraction(1, 2), "b": 1}])
    with pytest.raises(NotNatural):
        h.numbered_copy_hypergraph()


def test_two_section(demo):
    assert two_section(demo) == two_section(demo.support_hypergraph())
    assert two_section(demo.support_hypergraph()) == (
        ("v1", "v4"),
        ("v1", "v5"),
        ("v2", "v3"),
        ("v3", "v5"),
        ("v4", "v5"),
    )
    singleton = HbGraph.from_dicts(("a",), [{"a": 1}])
    assert two_section(singleton.support_hypergraph()) == ()
    pair = HbGraph.from_dicts(("a", "b"), [{"a": 1, "b": 1}])
    assert two_section(pair.support_hypergraph()) == (("a", "b"),)


def test_dual(demo):
    dual = demo.dual()
    assert dual.n == 4 and dual.p == 7
    assert dual.edges[0] == dual.edges[3]  # both {~e1: 2}
    assert dict(dual.edges[0].mult) == {"~e1": 2}
    assert dict(dual.edges[1].mult) == {"~e2": 3}
    assert dict(dual.edges[4].mult) == {"~e1": 1, "~e3": 2}
    assert dual.edges[6].is_empty()
    # m-cardinalities and m-degrees swap roles
    assert [e.m_cardinality() for e in dual.edges] == [
        demo.m_degree(v) for v in demo.vertices
    ]
    assert [dual.m_degree(x) for x in dual.vertices] == [
        e.m_cardinality() for e in demo.edges
    ]


def test_dual_degenerate(trivial):
    # structurally forced: no edges -> no dual vertices, one empty dual edge
    # per original vertex; the double dual recovers the vertex/edge counts
    dual = trivial.dual()
    assert dual.n == 0 and dual.p == 2
    assert all(e.is_empty() for e in dual.edges)
    double = dual.dual()
    assert double.n == 2 and double.p == 0


def test_dual_incidence_is_transpose():
    rng = random.Random(7)
    for _ in range(40):
        h = random_hbgraph(rng, n_max=6, p_max=5, mult_max=3)
        assert h.dual().incidence_matrix() == tuple(zip(*h.incidence_matrix()))


def test_uniform_iff_dual_regular():
    rng = random.Random(8)
    for _ in range(40):
        h = random_uniform_hbgraph(rng)
        k = h.m_range()
        assert h.is_k_m_uniform(k)
        assert h.dual().is_k_m_regular(k)
    for _ in range(40):
        h = random_hbgraph(rng, n_max=6, p_max=5, mult_max=3)
        k = h.m_range()
        assert h.is_k_m_uniform(k) == h.dual().is_k_m_regular(k)


def test_degree_double_counting():
    rng = random.Random(9)
    for _ in range(30):
        h = random_hbgraph(rng)
        assert sum(h.m_degree(v) for v in h.vertices) == sum(
            e.m_cardinality() for e in h.edges
        )


def test_order_against_incidence_recomputation():
    rng = random.Random(10)
    for _ in range(30):
        h = random_hbgraph(rng)
        rows = h.incidence_matrix()
        assert h.order() == sum(max(row, default=0) for row in rows)
        assert h.order() >= h.m_range()
        assert len(h.numbered_copy_hypergraph().vertices) == h.order()


def test_hb_sum(demo, trivial):
    same = hb_sum(demo, HbGraph(demo.vertices))
    assert same == demo
    other = HbGraph.from_dicts(("w1", "w2"), [{"w1": 1}])
    total = hb_sum(demo, other)
    assert total.size() == demo.size() + other.size()
    assert total.vertices == demo.vertices + ("w1", "w2")
    assert is_direct(demo, other)
    assert not is_direct(demo, HbGraph.from_dicts(demo.vertices, [{"v6": 1}]))
    # random summands over overlapping vertex names: unweighted, weighted, mixed
    rng = random.Random(11)
    for k in range(60):
        a, b = random_weighted_hbgraph(rng, k % 2), random_weighted_hbgraph(rng, k % 3)
        total = hb_sum(a, b)
        assert total == merge([a, b])
        assert total.vertices == a.vertices + tuple(
            v for v in b.vertices if v not in a.vertices
        )
        assert [e.mult for e in total.edges] == [e.mult for e in a.edges + b.edges]
        if a.weights is None and b.weights is None:
            assert total.weights is None
        else:
            assert total.weights == tuple(
                [a.weight(i) for i in range(a.p)] + [b.weight(i) for i in range(b.p)]
            )


def test_numbered_copy_hypergraph(demo):
    nch = demo.numbered_copy_hypergraph()
    assert len(nch.vertices) == demo.order()
    assert frozenset(nch.edges[0].support()) == frozenset(
        {("v1", 1), ("v1", 2), ("v4", 1), ("v4", 2), ("v5", 1)}
    )
    assert frozenset(nch.edges[2].support()) == frozenset({("v3", 1), ("v5", 1), ("v5", 2)})
    hg = HbGraph.from_dicts(("a", "b"), [{"a": 1, "b": 1}])
    assert [frozenset(e.support()) for e in hg.numbered_copy_hypergraph().edges] == [
        frozenset({("a", 1), ("b", 1)}),
    ]


def test_adjacency_predicates(demo):
    assert demo.are_incident(0, 2) and demo.are_incident(1, 2)
    assert not any(demo.are_incident(3, j) for j in (0, 1, 2))
    assert demo.are_estar_adjacent(("v1", "v4", "v5"), 0)
    assert not demo.are_estar_adjacent(("v1", "v2"), 0)
    query = Multiset(demo.vertices, {"v1": 2, "v4": 1, "v5": 1})
    assert demo.are_e_adjacent(query, 0)
    assert demo.are_k_adjacent(query)
    too_much = Multiset(demo.vertices, {"v1": 3})
    assert not demo.are_e_adjacent(too_much, 0)
    assert not demo.are_k_adjacent(too_much)
    with pytest.raises(UnknownEdge):
        demo.are_incident(0, 9)
    with pytest.raises(UniverseMismatch):
        demo.are_k_adjacent(Multiset(("v1",), {"v1": 1}))


def test_edge_universe_checked():
    with pytest.raises(UniverseMismatch):
        HbGraph(("a", "b"), [Multiset(("a",), {"a": 1})])


def test_one_weight_per_edge():
    edges = [{"a": 1}, {"b": 1}]
    with pytest.raises(DomainError, match="one weight per hb-edge required"):
        HbGraph.from_dicts(("a", "b"), edges, [1])


# -- the vertex stars against a recomputation over every (vertex, edge) pair --


def random_weighted_hbgraph(rng: random.Random, weighted: bool) -> HbGraph:
    """Random hb-graph with integer and Fraction multiplicities, optional weights."""
    n = rng.randint(0, 6)
    vertices = tuple(f"v{i + 1}" for i in range(n))
    edges = [
        {
            v: rng.choice([rng.randint(1, 4), Fraction(rng.randint(1, 9), rng.randint(1, 4))])
            for v in rng.sample(vertices, rng.randint(0, n))
        }
        for _ in range(rng.randint(0, 5))
    ]
    weights = (
        [rng.choice([rng.randint(1, 3), Fraction(rng.randint(1, 7), 3)]) for _ in edges]
        if weighted
        else None
    )
    return HbGraph.from_dicts(vertices, edges, weights)


def typed(values):
    return [(x, type(x)) for x in values]


def assert_metrics_match_pairwise_recomputation(h: HbGraph) -> None:
    rows = [[e.multiplicity(v) for e in h.edges] for v in h.vertices]
    assert typed(h.m_degree(v) for v in h.vertices) == typed(sum(row) for row in rows)
    assert [h.degree(v) for v in h.vertices] == [sum(1 for m in row if m) for row in rows]
    assert typed(h.max_multiplicity(v) for v in h.vertices) == typed(
        max(row, default=0) for row in rows
    )
    assert typed([h.order()]) == typed([sum(max(row, default=0) for row in rows)])
    assert h.is_natural() == all(type(m) is int for row in rows for m in row)
    assert h.isolated_vertices() == tuple(
        v for v, row in zip(h.vertices, rows) if not any(row)
    )
    edge_ids = tuple(range(h.p))
    assert [h.hb_star(v) for v in h.vertices] == [
        Multiset(edge_ids, {j: m for j, m in enumerate(row) if m}) for row in rows
    ]
    assert h.incidence_matrix() == tuple(tuple(row) for row in rows)
    dual_vertices = tuple(f"~e{j + 1}" for j in range(h.p))
    assert h.dual() == HbGraph(
        dual_vertices,
        [
            Multiset(dual_vertices, {dual_vertices[j]: m for j, m in enumerate(row)})
            for row in rows
        ],
    )


def test_star_metrics_seeded():
    rng = random.Random(12)
    for k in range(200):
        assert_metrics_match_pairwise_recomputation(random_weighted_hbgraph(rng, k % 2))
    for _ in range(50):
        assert_metrics_match_pairwise_recomputation(random_hbgraph(rng))


multiplicities = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.fractions(min_value=0, max_value=4, max_denominator=5),
)
weights = st.one_of(
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=Fraction(1, 5), max_value=4, max_denominator=5),
)


@st.composite
def hbgraphs(draw):
    vertices = tuple(f"v{i + 1}" for i in range(draw(st.integers(0, 6))))
    edge = st.dictionaries(st.sampled_from(vertices), multiplicities) if vertices else st.just({})
    edges = draw(st.lists(edge, max_size=6))
    ws = draw(st.none() | st.lists(weights, min_size=len(edges), max_size=len(edges)))
    return HbGraph.from_dicts(vertices, edges, ws)


@settings(max_examples=150, deadline=None)
@given(hbgraphs())
def test_star_metrics_hypothesis(h):
    assert_metrics_match_pairwise_recomputation(h)


def test_builders_share_the_vertex_table(demo, tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(io.dumps(io.hbgraph_to_obj(demo)), encoding="utf-8")
    weighted = HbGraph.from_dicts(("v1", "w1"), [{"w1": 2}, {"v1": 1}], [3, Fraction(1, 2)])
    graphs = {
        "from_dicts": demo,
        "load_hbgraph": io.load_hbgraph(path),
        "dual": demo.dual(),
        "hb_sum": hb_sum(demo, weighted, demo.dual()),
        "merge": merge([weighted, demo]),
        "y_complement": y_complement(demo, "N"),
        "vertex_increase": vertex_increase(demo, "N", 2),
        "dilatation": dilatation(canonical_weighting(demo), 2),
        "decompose": decompose(demo)[0],
    }
    for approach in APPROACHES:
        graphs[f"uniformize {approach}"] = uniformize(demo, approach)[0]
        tensor, trace = e_adjacency_tensor(demo, approach)
        graphs[f"reconstruct_hbgraph {approach}"] = reconstruct_hbgraph(
            tensor, trace, demo.vertices
        )
    for name, h in graphs.items():
        assert h.edges, name
        assert all(e.universe is h.vertices for e in h.edges), name
