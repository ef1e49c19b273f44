"""The hb-edge store against a reference built from ``Multiset``s.

``HbGraph`` keeps each hb-edge once, as its key ((position + 1, m, 1), ...)
by ascending position and its m-cardinality, built in the pass that builds
the hb-stars, and views the keys as ``Multiset``s only on request.  Here
the keys, stars, m-cardinalities, the ``edges`` view, equality, hashing and
the structural predicates are compared with what one ``Multiset`` per
hb-edge gives, on seeded and Hypothesis-drawn graphs with zeros, empty and
repeated edges, ``Fraction`` multiplicities, weights, isolated vertices and
mult dicts written out of vertex order.  The tensor keys are compared with
the keys the hb-stars gave before the store.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

from hypothesis import given, settings, strategies as st

from hbtensor import APPROACHES, HbGraph, Multiset
from hbtensor.tensor import _edge_keys, _merged
from hbtensor.transform import padding


def reference(vertices, edges):
    """What the graph held before the store: one ``Multiset`` per hb-edge,
    and the hb-stars built from their supports."""
    multisets = [Multiset(vertices, e) for e in edges]
    position = {v: k for k, v in enumerate(vertices)}
    stars = [[] for _ in vertices]
    for j, e in enumerate(multisets):
        for x, m in e.mult.items():
            stars[position[x]].append((j, m))
    keys = [tuple((position[x] + 1, m, 1) for x, m in e.mult.items()) for e in multisets]
    return multisets, keys, stars


def star_keys(h: HbGraph, approach: str, r_h: int) -> list:
    """Reference: ``tensor._edge_keys`` as the hb-stars gave it, the runs read
    off the stars in vertex order, then the padding run, merged."""
    keys, cards = [[] for _ in range(h.p)], [0] * h.p
    for i, star in enumerate(h._stars, 1):
        for j, m in star:
            keys[j].append((i, m, 1))
            cards[j] += m
    return [_merged(chain(key, padding(approach, h.n, r_h, c))) for key, c in zip(keys, cards)]


def check_store(vertices, edges, weights=None) -> HbGraph:
    h = HbGraph.from_dicts(vertices, edges, weights)
    multisets, keys, stars = reference(vertices, edges)
    assert list(h._keys) == keys
    assert h._stars == stars
    cards = [e.m_cardinality() for e in multisets]
    assert [(c, type(c)) for c in h._cards] == [(c, type(c)) for c in cards]
    assert list(h.edges) == multisets
    assert all(e.universe is h.vertices for e in h.edges)
    assert h.is_natural() == all(e.natural for e in multisets)
    assert h.no_repeated_edges() == (len(set(multisets)) == len(multisets))
    assert h.has_empty_edges() == any(e.is_empty() for e in multisets)
    if multisets:
        assert (h.m_range(), h.m_corange()) == (max(cards), min(cards))
    # the same graph, its mult dicts written backwards, from the Multisets
    again = HbGraph(h.vertices, [dict(reversed(e.items())) for e in edges], weights)
    views = HbGraph(tuple(vertices), multisets, weights)
    for other in (again, views):
        assert other == h and hash(other) == hash(h)
        assert other._keys == h._keys and other._stars == h._stars
    return h


def same_as_reference(g: HbGraph, h: HbGraph) -> bool:
    """Reference equality: the vertex lists, the edges as ``Multiset``s and
    the weights."""
    return (tuple(g.vertices), list(g.edges), g.weights) == (
        tuple(h.vertices),
        list(h.edges),
        h.weights,
    )


def random_graph(rng: random.Random):
    """Vertices, edge dicts and weights: zero, Fraction and repeated
    multiplicities, empty and repeated edges, isolated vertices."""
    vertices = [f"v{i}" for i in range(rng.randint(0, 6))]
    edges = []
    for _ in range(rng.randint(0, 5)):
        if edges and rng.random() < 0.15:
            edges.append(dict(rng.choice(edges)))  # a repeated edge
            continue
        support = rng.sample(vertices, rng.randint(0, len(vertices)))
        edges.append(
            {
                v: rng.choice([0, 1, 2, 3, 3, Fraction(rng.randint(1, 9), rng.randint(1, 4))])
                for v in support
            }
        )
    weights = None
    if rng.random() < 0.4:
        weights = [rng.choice([1, 2, Fraction(rng.randint(1, 7), 3)]) for _ in edges]
    return vertices, edges, weights


def test_store_matches_multisets_seeded():
    rng = random.Random(2024)
    graphs = [check_store(*random_graph(rng)) for _ in range(400)]
    for g, h in zip(graphs, graphs[1:] + graphs[:1]):
        assert (g == h) == same_as_reference(g, h)


multiplicities = st.one_of(
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=5, max_denominator=4),
)


@st.composite
def graphs(draw):
    vertices = [f"v{i}" for i in range(draw(st.integers(0, 6)))]
    if vertices:
        edge = st.dictionaries(st.sampled_from(vertices), multiplicities, max_size=len(vertices))
    else:
        edge = st.just({})
    edges = draw(st.lists(edge, max_size=5))
    if edges and draw(st.booleans()):
        edges.append(dict(draw(st.sampled_from(edges))))
    weights = st.integers(1, 4) | st.fractions(min_value=Fraction(1, 3), max_value=4)
    ws = draw(st.none() | st.lists(weights, min_size=len(edges), max_size=len(edges)))
    return vertices, edges, ws


@settings(max_examples=200, deadline=None)
@given(graphs(), graphs())
def test_store_matches_multisets_hypothesis(first, second):
    g, h = check_store(*first), check_store(*second)
    assert (g == h) == same_as_reference(g, h)
    if g == h:
        assert hash(g) == hash(h)


def test_edge_keys_match_the_star_keys_on_ten_thousand_graphs():
    rng = random.Random(18)
    checked = 0
    while checked < 10_000:
        vertices, edges, weights = random_graph(rng)
        h = HbGraph.from_dicts(vertices, edges, weights)
        if not h.p:
            continue
        r_h = max(h.m_range(), 1)
        for approach in APPROACHES:
            assert _edge_keys(h, approach, r_h) == star_keys(h, approach, r_h)
        checked += 1
