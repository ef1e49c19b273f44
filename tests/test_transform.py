from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hbtensor import (
    APPROACHES,
    HbGraph,
    Multiset,
    NonPositiveC,
    NotNatural,
    RepeatedEdges,
    VertexCollision,
    canonical_weighting,
    decompose,
    dilatation,
    e_adjacency_tensor,
    hb_sum,
    merge,
    uniformize,
    vertex_increase,
    y_complement,
)
from hbtensor.errors import EmptyEdge, EmptyEdgeFamily
from hbtensor.transform import UniformisationTrace, padding
from randgen import random_hbgraph, random_uniform_hbgraph


def test_canonical_weighting(demo, trivial):
    w = canonical_weighting(demo)
    assert w.weights == (1, 1, 1, 1)
    rewritten = canonical_weighting(dilatation(w, 3))
    assert rewritten.weights == (1, 1, 1, 1)
    assert canonical_weighting(trivial).weights == ()


def test_dilatation(demo):
    w = canonical_weighting(demo)
    assert dilatation(w, 1).weights == w.weights
    assert dilatation(w, Fraction(5, 3)).weights == (Fraction(5, 3),) * 4
    assert dilatation(dilatation(w, 2), Fraction(1, 2)).weights == (1, 1, 1, 1)
    with pytest.raises(NonPositiveC):
        dilatation(w, 0)
    with pytest.raises(NonPositiveC):
        dilatation(w, Fraction(-1, 2))


def test_y_complement(demo):
    w = canonical_weighting(demo)
    comp = y_complement(w, "N")
    assert comp.vertices == demo.vertices + ("N",)
    assert comp.edges[3].multiplicity("N") == 4  # cardinality 1, r_H 5
    assert comp.edges[1].multiplicity("N") == 1  # cardinality 4
    assert "N" not in comp.edges[0]  # already at r_H
    assert comp.is_k_m_uniform(5)
    assert comp.weights == w.weights
    with pytest.raises(VertexCollision):
        y_complement(w, "v1")
    fractional = HbGraph.from_dicts(("a",), [{"a": Fraction(1, 2)}])
    with pytest.raises(NotNatural):
        y_complement(canonical_weighting(fractional), "N")


def test_vertex_increase(demo):
    w = canonical_weighting(demo)
    up = vertex_increase(w, "N", 2)
    assert all(e.multiplicity("N") == 2 for e in up.edges)
    assert up.weights == w.weights
    uniform = HbGraph.from_dicts(("a", "b"), [{"a": 1, "b": 1}, {"a": 2}])
    assert vertex_increase(canonical_weighting(uniform), "N", 1).is_k_m_uniform(3)
    with pytest.raises(VertexCollision):
        vertex_increase(w, "v2", 1)


def test_merge(demo, trivial):
    w = canonical_weighting(demo)
    assert merge([w]) == w
    extended = merge([canonical_weighting(trivial), w])
    assert extended.vertices == ("a", "b") + demo.vertices
    assert extended.edge_counter() == Counter(
        Multiset(extended.vertices, dict(e.mult)) for e in demo.edges
    )


def test_merge_of_silo_layers(demo):
    levels = decompose(demo)
    lifted = []
    r_h = demo.m_range()
    for r, level in enumerate(levels, start=1):
        if not level.edges:
            continue
        weighted = dilatation(canonical_weighting(level), Fraction(r_h, r))
        if r < r_h:
            weighted = vertex_increase(weighted, f"N{r}", r_h - r)
        lifted.append(weighted)
    merged = merge(lifted)
    assert merged.size() == 4
    assert merged.vertices == demo.vertices + ("N1", "N3", "N4")
    assert merged.is_k_m_uniform(r_h)


def test_decompose(demo):
    levels = decompose(demo)
    assert len(levels) == 5
    assert [level.size() for level in levels] == [1, 0, 1, 1, 1]
    assert levels[0].edges[0] == demo.edges[3]
    assert levels[4].edges[0] == demo.edges[0]
    uniform = HbGraph.from_dicts(("a", "b"), [{"a": 2}, {"b": 2}])
    assert [lv.size() for lv in decompose(uniform)] == [0, 2]
    # round trip as an edge multiset
    total = decompose(demo)[0]
    for level in decompose(demo)[1:]:
        total = hb_sum(total, level)
    assert total.edge_counter() == demo.edge_counter()
    with pytest.raises(EmptyEdge):
        decompose(HbGraph.from_dicts(("a",), [{}]))


def test_uniformize_demo_examples(demo):
    uni, _ = uniformize(demo, "straightforward")
    assert dict(uni.edges[3].mult) == {"v6": 1, "__N1": 4}
    assert uni.weights[3] == 5

    uni, _ = uniformize(demo, "silo")
    assert dict(uni.edges[2].mult) == {"v3": 1, "v5": 2, "__N3": 2}
    assert uni.weights[2] == Fraction(5, 3)

    uni, _ = uniformize(demo, "layered")
    assert dict(uni.edges[2].mult) == {"v3": 1, "v5": 2, "__L3": 1, "__L4": 1}
    assert uni.weights[2] == Fraction(5, 3)


def test_uniformize_trace_indices(demo):
    n = demo.n
    for approach, nulls in (
        ("straightforward", ("__N1",)),
        ("silo", ("__N1", "__N2", "__N3", "__N4")),
        ("layered", ("__L1", "__L2", "__L3", "__L4")),
    ):
        uni, trace = uniformize(demo, approach)
        assert trace == (approach, 5)
        assert trace.null_vertices == nulls and trace.n_a == len(nulls)
        # item k - 1 of the null vertices has tensor index n + k
        assert uni.vertices[n:] == nulls


def test_uniformize_invariants():
    rng = random.Random(17)
    for _ in range(25):
        h = random_hbgraph(rng, n_max=6, p_max=5, mult_max=3)
        r_h = h.m_range()
        for approach in APPROACHES:
            uni, trace = uniformize(h, approach)
            assert uni.is_k_m_uniform(r_h)
            assert uni.size() == h.size()
            # restriction to the original vertices recovers the input edge
            for k, (edge, source) in enumerate(zip(uni.edges, h.edges, strict=True)):
                restriction = {
                    v: m for v, m in edge.mult.items() if not v.startswith("__")
                }
                assert restriction == dict(source.mult)
                assert uni.weights[k] == Fraction(r_h, source.m_cardinality())
            # sum over output edges of r_H / weight gives the input mass
            assert sum(Fraction(r_h, w) for w in uni.weights) == sum(
                e.m_cardinality() for e in h.edges
            )


def test_uniformize_on_uniform_input_is_identity_like():
    rng = random.Random(23)
    for _ in range(10):
        h = random_uniform_hbgraph(rng, k_max=4)
        for approach in APPROACHES:
            uni, trace = uniformize(h, approach)
            assert uni.weights == (1,) * h.p
            for null in trace.null_vertices:
                assert uni.m_degree(null) == 0
            restrictions = [
                {v: m for v, m in e.mult.items() if not v.startswith("__")}
                for e in uni.edges
            ]
            assert restrictions == [dict(e.mult) for e in h.edges]


def test_uniformize_preconditions(demo, trivial):
    with pytest.raises(EmptyEdgeFamily):
        uniformize(trivial, "silo")
    repeated = HbGraph.from_dicts(("a", "b"), [{"a": 1}, {"a": 1}])
    with pytest.raises(RepeatedEdges):
        uniformize(repeated, "silo")
    with pytest.raises(EmptyEdge):
        uniformize(HbGraph.from_dicts(("a",), [{}]), "silo")
    with pytest.raises(NotNatural):
        uniformize(
            HbGraph.from_dicts(("a",), [{"a": Fraction(1, 2)}]), "straightforward"
        )
    with pytest.raises(VertexCollision):
        uniformize(HbGraph.from_dicts(("__x",), [{"__x": 1}]), "silo")


def test_vertex_ids_need_not_be_strings():
    ints = HbGraph.from_dicts([1, 2], [{1: 1}, {1: 1, 2: 1}])
    named = HbGraph.from_dicts(["a", "b"], [{"a": 1}, {"a": 1, "b": 1}])
    for approach in APPROACHES:
        assert e_adjacency_tensor(ints, approach) == e_adjacency_tensor(named, approach)
        # only uniformize, which names the null vertices, reserves the prefix
        reserved = HbGraph.from_dicts(["__v", 2], [{"__v": 1}, {"__v": 1, 2: 1}])
        with pytest.raises(VertexCollision):
            uniformize(reserved, approach)
        assert e_adjacency_tensor(reserved, approach) == e_adjacency_tensor(named, approach)


# -- differential check against the paper's composition ----------------------


def reference_uniformize(h: HbGraph, approach: str):
    """m-uniformisation as the paper composes it from the elementary operations."""
    base = HbGraph(h.vertices, h.edges)
    r_h = base.m_range()
    dilated = [
        dilatation(canonical_weighting(level), Fraction(r_h, r))
        for r, level in enumerate(decompose(base), start=1)
    ]

    if approach == "straightforward":
        uniform = y_complement(merge(dilated), "__N1")
    elif approach == "silo":
        lifted = [
            vertex_increase(level, f"__N{r}", r_h - r) if r < r_h else level
            for r, level in enumerate(dilated, start=1)
        ]
        uniform = merge(lifted)
    else:
        accumulated = dilated[0]
        for k in range(1, r_h):
            accumulated = merge(
                [vertex_increase(accumulated, f"__L{k}", 1), dilated[k]]
            )
        uniform = accumulated

    return uniform, UniformisationTrace(approach, r_h)


def level_order(h: HbGraph) -> list[int]:
    """The input edges in the composition's output order: a stable sort by
    m-cardinality."""
    return sorted(range(h.p), key=lambda i: h.edges[i].m_cardinality())


def tensor_from_uniform(uniform: HbGraph, trace, h: HbGraph) -> dict:
    """One entry per uniformized edge (edge k of ``uniform`` coming from input
    edge ``level_order(h)[k]``): sorted index key, prod m! / (r_H-1)! * w."""
    position = {v: k + 1 for k, v in enumerate(uniform.vertices)}
    entries = {}
    for edge, i in zip(uniform.edges, level_order(h), strict=True):
        key = tuple(sorted(position[x] for x, m in edge.mult.items() for _ in range(m)))
        value = Fraction(
            math.prod(math.factorial(m) for m in edge.mult.values()),
            math.factorial(trace.r_h - 1),
        )
        entries[key] = value * h.weight(i)
    return entries


def assert_matches_reference(h: HbGraph) -> None:
    for approach in APPROACHES:
        expected, expected_trace = reference_uniformize(h, approach)
        uni, trace = uniformize(h, approach)
        # output edge i is input edge i plus its padding, weighted r_H / c_i
        r_h = trace.r_h
        for edge, source, w in zip(uni.edges, h.edges, uni.weights, strict=True):
            c = source.m_cardinality()
            nulls = [
                (uni.vertices[j - 1], m)
                for first, m, k in padding(approach, h.n, r_h, c)
                for j in range(first, first + k)
            ]
            assert list(edge.mult.items()) == list(source.mult.items()) + nulls
            assert w == Fraction(r_h, c)
        # the composition yields level order: equal after the stable sort
        order = level_order(h)
        assert uni.vertices == expected.vertices
        assert [uni.edges[i] for i in order] == list(expected.edges)
        assert [uni.weights[i] for i in order] == list(expected.weights)
        assert trace == expected_trace
        # the derived null-vertex ids are those the composition appends
        assert expected.vertices[h.n :] == trace.null_vertices
        t, t_trace = e_adjacency_tensor(h, approach)
        assert t_trace == expected_trace
        assert (t.order, t.dim) == (expected_trace.r_h, expected.n)
        assert dict(t.canonical_items()) == tensor_from_uniform(expected, expected_trace, h)


def test_uniformize_matches_paper_composition_seeded(demo):
    assert_matches_reference(demo)
    weighted = HbGraph(demo.vertices, demo.edges, [2, Fraction(1, 3), 5, 7])
    assert_matches_reference(weighted)
    rng = random.Random(59)
    for _ in range(40):
        h = random_hbgraph(rng, n_max=6, p_max=6, mult_max=3)
        assert_matches_reference(h)
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(h.p)]
        assert_matches_reference(HbGraph(h.vertices, h.edges, weights))


@st.composite
def natural_hbgraphs(draw):
    n = draw(st.integers(1, 4))
    vertices = tuple(f"v{i + 1}" for i in range(n))
    edge = st.dictionaries(st.sampled_from(vertices), st.integers(1, 3), min_size=1)
    edges = draw(
        st.lists(edge, min_size=1, max_size=5, unique_by=lambda e: tuple(sorted(e.items())))
    )
    weight = st.fractions(min_value=Fraction(1, 8), max_value=8)
    weights = draw(st.none() | st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return HbGraph.from_dicts(vertices, edges, weights)


@settings(max_examples=60, deadline=None)
@given(natural_hbgraphs())
def test_uniformize_matches_paper_composition_hypothesis(h):
    assert_matches_reference(h)
