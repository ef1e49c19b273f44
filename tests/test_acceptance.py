"""Acceptance suite: one test per release criterion, exact unless stated.

Each test prints a single `criterion N (...): PASS` line on success; a failed
assertion marks the criterion red.  Randomized criteria use fixed seeds, so
the whole suite is deterministic.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from hbtensor import (
    APPROACHES,
    HbGraph,
    LARGE,
    MPath,
    Multiset,
    STRICT,
    count_paths,
    e_adjacency_tensor,
    edge_distribution,
    estimate_max_eigenvalue,
    hypergraph_tensor,
    reconstruct_edges,
    spectral_bound,
    validate_path,
)
from conftest import DEMO_EDGES, DEMO_VERTICES
from randgen import random_hbgraph, random_hypergraph
from test_spectral import delta_star_closed_form
from test_tensor import hypergraph_formula
from test_paths import _valid_alternations, brute_force_count


def _announce(number: int, name: str) -> None:
    print(f"criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def instances() -> list[HbGraph]:
    rng = random.Random(20240601)
    return [random_hbgraph(rng, n_max=8, p_max=6, mult_max=4) for _ in range(500)]


@pytest.fixture(scope="module")
def built(instances):
    out = []
    for h in instances:
        out.append((h, {ap: e_adjacency_tensor(h, ap) for ap in APPROACHES}))
    return out


def test_criterion_1_golden_example():
    started = time.monotonic()
    h = HbGraph.from_dicts(DEMO_VERTICES, DEMO_EDGES)
    assert h.order() == 11
    assert h.size() == 4
    assert h.isolated_vertices() == ("v7",)
    assert h.incidence_matrix() == (
        (2, 0, 0, 0),
        (0, 3, 0, 0),
        (0, 1, 1, 0),
        (2, 0, 0, 0),
        (1, 0, 2, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
    )
    assert [h.m_degree(v) for v in h.vertices] == [2, 3, 2, 2, 3, 1, 0]
    assert [h.max_multiplicity(v) for v in h.vertices] == [2, 3, 1, 2, 2, 1, 0]
    incident = {
        (i, j) for i in range(4) for j in range(4) if i < j and h.are_incident(i, j)
    }
    assert incident == {(0, 2), (1, 2)}
    dual = h.dual()
    assert dual.n == 4 and dual.p == 7
    assert dict(dual.edges[4].mult) == {"~e1": 1, "~e3": 2}
    assert dual.edges[6].is_empty()
    assert dual.edges[0] == dual.edges[3]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _announce(1, "golden example")


def test_criterion_2_degree_retrieval():
    started = time.monotonic()
    rng = random.Random(97)
    for _ in range(500):
        h = random_hbgraph(rng, n_max=8, p_max=6, mult_max=4)
        for approach in APPROACHES:
            t, _ = e_adjacency_tensor(h, approach)
            for i, v in enumerate(h.vertices):
                assert t.row_sum(i + 1) == h.m_degree(v)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _announce(2, f"degree retrieval, {elapsed:.1f}s")


def test_criterion_3_total_sum(built):
    for h, tensors in built:
        for approach in APPROACHES:
            t, trace = tensors[approach]
            assert t.total_sum() == trace.r_h * h.p
    _announce(3, "total-sum identity")


def test_criterion_4_distribution_recovery(built):
    demo = HbGraph.from_dicts(DEMO_VERTICES, DEMO_EDGES)
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(demo, approach)
        assert edge_distribution(t, trace, demo.p) == {1: 1, 3: 1, 4: 1, 5: 1}
    # weighted: the summed weight per level
    edges = [{"a": 1}, {"a": 1, "b": 2}, {"c": 1, "d": 2}]
    weighted = HbGraph.from_dicts(("a", "b", "c", "d"), edges, [2, 1, 1])
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(weighted, approach)
        assert edge_distribution(t, trace, weighted.p) == {1: 2, 3: 2}
    for h, tensors in built:
        expected = Counter(int(e.m_cardinality()) for e in h.edges)
        for approach in APPROACHES:
            t, trace = tensors[approach]
            assert edge_distribution(t, trace, h.p) == expected
    _announce(4, "hb-edge distribution recovery")


def test_criterion_5_reconstructivity(built):
    for h, tensors in built:
        position = {v: k + 1 for k, v in enumerate(h.vertices)}
        truth = Counter(
            tuple(sorted((position[x], m) for x, m in e.mult.items()))
            for e in h.edges
        )
        for approach in APPROACHES:
            t, trace = tensors[approach]
            recovered = Counter(
                tuple(sorted(edge.items())) for edge in reconstruct_edges(t, trace)
            )
            assert recovered == truth
    _announce(5, "reconstructivity round trip")


def test_criterion_6_hypergraph_reduction():
    rng = random.Random(101)
    for _ in range(100):
        hg = random_hypergraph(rng, n_max=8, k_max=5)
        direct, _ = hypergraph_tensor(hg)
        via_silo, _ = e_adjacency_tensor(hg, "silo")
        assert direct == via_silo
        assert dict(direct.canonical_items()) == hypergraph_formula(hg)
    for _ in range(20):
        n = rng.randint(2, 8)
        k = rng.randint(1, min(5, n))
        vertices = tuple(f"v{i}" for i in range(n))
        supports = {tuple(sorted(rng.sample(range(n), k)))}
        while len(supports) < min(3, math.comb(n, k)):
            supports.add(tuple(sorted(rng.sample(range(n), k))))
        hg = HbGraph.from_dicts(
            vertices, [{vertices[i]: 1 for i in s} for s in sorted(supports)]
        )
        t, _ = hypergraph_tensor(hg)
        expected = Fraction(1, math.factorial(k - 1))
        assert all(v == expected for _, v in t.canonical_items())
    _announce(6, "hypergraph reduction")


def test_criterion_7_spectral_bound():
    rng = random.Random(103)
    instances = []
    while len(instances) < 100:
        h = random_hbgraph(rng, n_max=8, p_max=6, mult_max=4)
        if h.m_range() < 2:
            continue
        if len(instances) % 2 == 0:
            r_h = h.m_range()
            full = Multiset(h.vertices, {h.vertices[0]: r_h})
            if full not in h.edges:
                h = HbGraph(h.vertices, h.edges + (full,))
        instances.append(h)
    for h in instances:
        counts = Counter(int(e.m_cardinality()) for e in h.edges)
        r_h = h.m_range()
        for approach in APPROACHES:
            t, trace = e_adjacency_tensor(h, approach)
            report = spectral_bound(t, trace)
            assert report.delta_star == delta_star_closed_form(approach, r_h, counts)
            estimate = estimate_max_eigenvalue(t, iterations=2000)
            assert estimate.value <= float(report.bound) + 1e-6
            n = h.n
            for i, v in enumerate(h.vertices):
                diag = t.get((i + 1,) * r_h)
                expected = r_h if Multiset(h.vertices, {v: r_h}) in h.edges else 0
                assert diag == expected
            for i in range(n + 1, t.dim + 1):
                assert t.get((i,) * r_h) == 0
    _announce(7, "spectral bound")


def test_criterion_8_path_count_oracle():
    rng = random.Random(107)
    checked = 0
    for _ in range(10):
        h = random_hbgraph(rng, n_max=6, p_max=5, mult_max=3)
        for vertices, edge_seq in _valid_alternations(h, max_length=3):
            for kind in (STRICT, LARGE):
                path = MPath(vertices, edge_seq, kind)
                if not validate_path(h, path):
                    continue
                assert count_paths(h, path) == brute_force_count(h, path)
                checked += 1
    assert checked >= 1000
    _announce(8, f"path-count oracle, {checked} alternations")


def test_criterion_9_multiset_laws():
    rng = random.Random(109)
    cases = 0
    for _ in range(1200):
        universe = tuple(f"x{i}" for i in range(rng.randint(1, 6)))

        def rand_mset():
            mult = {}
            for x in universe:
                kind = rng.randint(0, 3)
                if kind == 0:
                    continue
                if kind == 1:
                    mult[x] = rng.randint(0, 5)
                else:
                    mult[x] = Fraction(rng.randint(0, 10), rng.randint(1, 6))
            return Multiset(universe, mult)

        a, b, c = rand_mset(), rand_mset(), rand_mset()
        empty = Multiset.empty(universe)
        assert a.union(b) == b.union(a)
        assert a.intersection(b) == b.intersection(a)
        assert a.msum(b) == b.msum(a)
        assert a.union(b).union(c) == a.union(b.union(c))
        assert a.intersection(b).intersection(c) == a.intersection(b.intersection(c))
        assert a.msum(b).msum(c) == a.msum(b.msum(c))
        assert a.union(empty) == a and a.msum(empty) == a
        assert a.intersection(empty) == empty
        assert a.union(a) == a and a.intersection(a) == a
        assert a.msum(b.union(c)) == a.msum(b).union(a.msum(c))
        assert a.msum(b.intersection(c)) == a.msum(b).intersection(a.msum(c))
        assert a.union(b.intersection(c)) == a.union(b).intersection(a.union(c))
        assert a.intersection(b.union(c)) == a.intersection(b).union(a.intersection(c))
        cases += 1
    assert cases >= 1000
    _announce(9, f"multiset algebra laws, {cases} cases")


def test_criterion_10_dual_surface():
    rng = random.Random(113)
    for _ in range(200):
        h = random_hbgraph(rng, n_max=7, p_max=6, mult_max=4)
        dual = h.dual()
        assert dual.incidence_matrix() == tuple(zip(*h.incidence_matrix()))
        k = h.m_range()
        assert h.is_k_m_uniform(k) == dual.is_k_m_regular(k)
        for k_other in range(1, 9):
            assert h.is_k_m_uniform(k_other) == dual.is_k_m_regular(k_other)
    _announce(10, "dual involution surface")
