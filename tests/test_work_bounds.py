"""Work bounds by count: the quantities that set each stage's cost, bounded
exactly by the input size on every graph drawn, under every approach.

With S = sum |supp e| over the hb-edges and p their number:
- the tensor keys, ``_edge_keys``, hold at most S + p runs in all: a key is
  its edge's support runs and at most one padding run;
- ``_twin_classes`` parts the indices into at most 2 (runs) + 1 pieces, one
  per range between two consecutive run boundaries;
- the estimator's trie, over the twin-class piece map, has at most S + (the
  number of distinct m-cardinalities) nodes: the entries of one level share
  their padding, straightforward and silo one node, layered one chain;
- the tensor has one canonical entry per hb-edge.

Two bounds do not hold yet; each is a strict xfail (``xfail_strict``), owned by
the ROADMAP item whose change flips it: ``diameter`` runs one search per
vertex (item 13), and the row sums are one value per dimension (item 14).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from hbtensor import APPROACHES, LAYERED, HbGraph, diameter, e_adjacency_tensor, paths
from hbtensor.spectral import _trie, _twin_classes
from hbtensor.tensor import _edge_keys
from randgen import random_hbgraph, random_hypergraph, random_uniform_hbgraph
from test_spectral import highmult_shaped, sparse_shaped


def assert_work_bounds(h: HbGraph) -> None:
    supports = sum(len(e.support()) for e in h.edges)
    levels = {e.m_cardinality() for e in h.edges}
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(h, approach)
        runs = sum(map(len, _edge_keys(h, approach, trace.r_h)))
        assert runs <= supports + h.p, approach
        _, at = _twin_classes(t._entries)
        assert len(at) <= 2 * runs + 1, approach
        nodes, _, _ = _trie(t._entries.items(), at)
        assert len(nodes) <= supports + len(levels), approach
        assert t.canonical_count() == h.p, approach


def chain(n: int, m: int) -> HbGraph:
    """v1 - v2 - ... - vn, each hb-edge {v_i^m, v_(i+1)}."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    return HbGraph.from_dicts(vertices, [{a: m, b: 1} for a, b in zip(vertices, vertices[1:])])


def wide(rng: random.Random, n: int) -> HbGraph:
    """n vertices, one hb-edge over all of them and n more over random halves."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [{v: rng.randint(1, 9) for v in vertices}]
    while len(edges) <= n:
        e = {v: rng.randint(1, 9) for v in rng.sample(vertices, n // 2)}
        if e not in edges:
            edges.append(e)
    return HbGraph.from_dicts(vertices, edges)


def test_work_bounds_on_seeded_families():
    rng = random.Random(22)
    graphs = [
        HbGraph.from_dicts(("a", "b"), [{"a": m}, {"a": 1, "b": 1}]) for m in (10**6, 10**9)
    ]
    graphs += [HbGraph.from_dicts(("a",), [{"a": m}]) for m in (1, 7, 10**6)]
    graphs += [chain(300, 1), chain(300, 5), wide(rng, 60)]
    graphs += [sparse_shaped(random.Random(107)), highmult_shaped(random.Random(101))]
    for _ in range(40):
        graphs.append(random_hbgraph(rng, n_max=12, p_max=10, mult_max=20))
        graphs.append(random_hypergraph(rng, n_max=12, p_max=10))
        graphs.append(random_uniform_hbgraph(rng))
    for h in graphs:
        assert_work_bounds(h)


@st.composite
def hbgraphs(draw):
    """Up to 6 distinct hb-edges over up to 8 vertices, of any support, with
    multiplicities either small or up to 10^6."""
    vertices = [f"v{i}" for i in range(1, draw(st.integers(1, 8)) + 1)]
    mult = st.one_of(st.integers(1, 4), st.integers(1, 10**6))
    edge = st.dictionaries(st.sampled_from(vertices), mult, min_size=1, max_size=len(vertices))
    edges = draw(
        st.lists(edge, min_size=1, max_size=6, unique_by=lambda e: tuple(sorted(e.items())))
    )
    return HbGraph.from_dicts(vertices, edges)


@settings(max_examples=150, deadline=None)
@given(hbgraphs())
def test_work_bounds_hypothesis(h):
    assert_work_bounds(h)


@pytest.mark.xfail(raises=AssertionError, reason="one search per vertex; ROADMAP item 13")
def test_diameter_of_a_chain_takes_two_searches(monkeypatch):
    """Eccentricity bounds settle a chain's diameter after a search from one
    end and one from the other; today ``diameter`` searches from all 300
    vertices."""
    calls = []
    search = paths._search

    def counted(*args):
        calls.append(args[2])
        return search(*args)

    monkeypatch.setattr(paths, "_search", counted)
    assert diameter(chain(300, 1)) == 299
    assert len(calls) <= 2, len(calls)


@pytest.mark.xfail(raises=AssertionError, reason="a row per dimension; ROADMAP item 14")
def test_row_sums_hold_at_most_one_value_per_piece():
    """The row sum is constant between two consecutive run boundaries, so at
    most 2 (runs) + 1 values describe it; today the layered tensor of
    {a^(10^6)}, {a, b} holds one per dimension, 10^6 + 1."""
    h = HbGraph.from_dicts(("a", "b"), [{"a": 10**6}, {"a": 1, "b": 1}])
    t, _ = e_adjacency_tensor(h, LAYERED)
    runs = sum(map(len, t._entries))
    assert len(t._row_vector()) <= 2 * runs + 1, len(t._row_vector())
