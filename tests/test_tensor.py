from __future__ import annotations

import itertools
import math
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hbtensor import (
    APPROACHES,
    HbGraph,
    Multiset,
    NotAHypergraph,
    NotNatural,
    NotUniform,
    RepeatedEdges,
    SymTensor,
    e_adjacency_tensor,
    edge_distribution,
    elementary_tensor,
    hypergraph_tensor,
    mset_hypermatrix,
    reconstruct_edges,
    reconstruct_hbgraph,
    spectral_bound,
    uniform_tensor,
)
from hbtensor.errors import (
    DimensionMismatch,
    DomainError,
    EmptyEdge,
    EmptyEdgeFamily,
    EmptyMultiset,
    IndexOutOfRange,
    TraceMismatch,
)
from hbtensor import tensor as tensor_module
from hbtensor.spectral import _trie
from hbtensor.tensor import (
    MAX_FULL_RECORDS,
    _dense,
    _edge_keys,
    _level_weights,
    _log10_multinomial,
    _multinomial,
    _runs,
    _shown,
)
from hbtensor.transform import LAYERED, SILO, STRAIGHTFORWARD, UniformisationTrace, padding
from randgen import random_hbgraph, random_hypergraph

DEMO_COUNTS = {1: 1, 3: 1, 4: 1, 5: 1}


# -- dense expansion oracles --------------------------------------------------


def dense_tuples(t: SymTensor):
    for idx in itertools.product(range(1, t.dim + 1), repeat=t.order):
        value = t.get(idx)
        if value:
            yield idx, value


def dense_row_sum(t: SymTensor, i: int) -> Fraction:
    return sum((v for idx, v in dense_tuples(t) if idx[0] == i), Fraction(0))


def dense_apply(t: SymTensor, x):
    out = [Fraction(0)] * t.dim
    for idx, v in dense_tuples(t):
        term = v
        for j in idx[1:]:
            term *= x[j - 1]
        out[idx[0] - 1] += term
    return out


def hypergraph_formula(hg: HbGraph) -> dict:
    """Per-hyperedge formula: support indices plus (n+k) repeated k_max-k times,
    with value (k_max-k)!/(k_max-1)! * w."""
    n, k_max = hg.n, hg.m_range()
    entries = {}
    for i, e in enumerate(hg.edges):
        k = e.cardinality()
        indices = [hg.vertex_index(v) + 1 for v in e.support()] + [n + k] * (k_max - k)
        value = Fraction(math.factorial(k_max - k), math.factorial(k_max - 1))
        entries[tuple(sorted(indices))] = value * hg.weight(i)
    return entries


def small_instances(count=6, seed=29):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        h = random_hbgraph(rng, n_max=3, p_max=3, mult_max=2)
        if h.m_range() <= 4:
            found.append(h)
    return found


# -- multiset hypermatrices ---------------------------------------------------


def test_mset_hypermatrix_normalized():
    m = Multiset(("x1", "x2"), {"x1": 2, "x2": 1})
    t = mset_hypermatrix(m, normalized=True)
    assert t.order == 3 and t.dim == 2
    assert t.canonical_items() == [((1, 1, 2), Fraction(1))]  # 2!1!/2! = 1
    single = mset_hypermatrix(Multiset(("x1",), {"x1": 1}), normalized=True)
    assert single.canonical_items() == [((1,), Fraction(1))]
    assert t.total_sum() == m.m_cardinality()


def test_mset_hypermatrix_unnormalized():
    m = Multiset(("x1", "x2"), {"x1": 2, "x2": 1})
    t = mset_hypermatrix(m, normalized=False)
    assert t.logical_nonzero_count() == 3  # 3!/2!
    assert t.total_sum() == 3
    assert t.get((1, 2, 1)) == 1
    assert t.get((2, 2, 1)) == 0


def test_mset_hypermatrix_errors():
    with pytest.raises(EmptyMultiset):
        mset_hypermatrix(Multiset(("a",), {}), normalized=True)
    with pytest.raises(NotNatural):
        mset_hypermatrix(Multiset(("a",), {"a": Fraction(1, 2)}), normalized=True)


def test_elementary_tensor(demo):
    e1 = HbGraph(demo.vertices, demo.edges[:1])
    t = elementary_tensor(e1)
    assert t.order == 5 and t.dim == 7
    assert t.canonical_items() == [((1, 1, 4, 4, 5), Fraction(1, 6))]
    unit = HbGraph.from_dicts(("a", "b", "c"), [{"a": 1, "b": 1, "c": 1}])
    assert elementary_tensor(unit).get((1, 2, 3)) == Fraction(1, 2)  # 1/(k-1)!
    singleton = HbGraph.from_dicts(("a",), [{"a": 1}])
    assert elementary_tensor(singleton).get((1,)) == 1


def test_uniform_tensor():
    disjoint = HbGraph.from_dicts(
        ("a", "b", "c", "d"), [{"a": 1, "b": 1}, {"c": 1, "d": 1}]
    )
    t = uniform_tensor(disjoint)
    assert t.canonical_items() == [((1, 2), Fraction(1)), ((3, 4), Fraction(1))]
    doubled = HbGraph.from_dicts(("v1", "v2"), [{"v1": 2}, {"v2": 2}])
    t = uniform_tensor(doubled)
    assert t.get((1, 1)) == 2 and t.get((2, 2)) == 2
    assert [t.row_sum(i) for i in (1, 2)] == [2, 2]
    single = HbGraph.from_dicts(("a", "b"), [{"a": 2, "b": 1}])
    assert uniform_tensor(single) == elementary_tensor(single)
    with pytest.raises(NotUniform):
        uniform_tensor(
            HbGraph.from_dicts(("a", "b"), [{"a": 1}, {"a": 1, "b": 1}])
        )
    with pytest.raises(RepeatedEdges):
        uniform_tensor(HbGraph.from_dicts(("a",), [{"a": 1}, {"a": 1}]))
    with pytest.raises(EmptyEdgeFamily):
        uniform_tensor(HbGraph(("a",)))
    with pytest.raises(NotNatural):
        uniform_tensor(HbGraph.from_dicts(("a",), [{"a": Fraction(3, 2)}]))
    with pytest.raises(EmptyEdge):
        uniform_tensor(HbGraph.from_dicts(("a",), [{}]))


# -- e-adjacency tensors ------------------------------------------------------


def test_demo_entries(demo):
    t, trace = e_adjacency_tensor(demo, "silo")
    assert t.order == 5 and t.dim == 11
    assert t.get((3, 5, 5, 10, 10)) == Fraction(1, 6)
    assert t.get((6, 8, 8, 8, 8)) == 1
    t, trace = e_adjacency_tensor(demo, "straightforward")
    assert t.dim == 8
    assert t.get((6, 8, 8, 8, 8)) == 1
    t, trace = e_adjacency_tensor(demo, "layered")
    assert t.dim == 11
    assert t.get((1, 1, 4, 4, 5)) == Fraction(1, 6)


def test_symmetry_lookup(demo):
    t, _ = e_adjacency_tensor(demo, "silo")
    assert t.get((5, 3, 10, 5, 10)) == t.get((3, 5, 5, 10, 10))
    assert t.get((10, 10, 5, 5, 3)) == Fraction(1, 6)
    with pytest.raises(DimensionMismatch):
        t.get((3, 5, 5, 10))
    with pytest.raises(IndexOutOfRange):
        t.get((3, 5, 5, 10, 12))
    with pytest.raises(IndexOutOfRange):
        t.get((0, 5, 5, 10, 10))


def test_canonical_count_is_edge_count():
    rng = random.Random(31)
    for _ in range(20):
        h = random_hbgraph(rng)
        for approach in APPROACHES:
            t, _ = e_adjacency_tensor(h, approach)
            assert t.canonical_count() == h.p


def test_row_sums_demo(demo):
    t, _ = e_adjacency_tensor(demo, "silo")
    assert t.row_sum(5) == 3
    assert t.row_sum(8) == 4  # first null vertex: (r_H - 1) * one edge
    assert sum(t.row_sum(i) for i in range(1, t.dim + 1)) == 20
    with pytest.raises(IndexOutOfRange):
        t.row_sum(12)
    # row_sums() hands out a fresh list: changing it leaves the tensor's rows alone
    rows = t.row_sums()
    expected = list(rows)
    rows[4] += 1
    rows.append(Fraction(7))
    assert t.row_sums() == expected and t.row_sum(5) == 3


def test_degree_retrieval_random():
    rng = random.Random(37)
    for _ in range(25):
        h = random_hbgraph(rng)
        for approach in APPROACHES:
            t, _ = e_adjacency_tensor(h, approach)
            for i, v in enumerate(h.vertices):
                assert t.row_sum(i + 1) == h.m_degree(v)
            assert t.total_sum() == h.m_range() * h.p


def test_row_sum_and_apply_against_dense_oracle():
    for h in small_instances():
        for approach in APPROACHES:
            t, _ = e_adjacency_tensor(h, approach)
            for i in range(1, t.dim + 1):
                assert t.row_sum(i) == dense_row_sum(t, i)
            assert t.row_sums() == [dense_row_sum(t, i) for i in range(1, t.dim + 1)]
            x = [Fraction(k + 1, 3) for k in range(t.dim)]
            assert t.apply(x) == dense_apply(t, x)


def test_apply_special_cases(demo):
    t, _ = e_adjacency_tensor(demo, "silo")
    ones = [1] * t.dim
    assert t.apply(ones) == [t.row_sum(i) for i in range(1, t.dim + 1)]
    zeros = [0] * t.dim
    assert t.apply(zeros) == [0] * t.dim
    pair = HbGraph.from_dicts(("a", "b"), [{"a": 1, "b": 1}])
    t2, _ = e_adjacency_tensor(pair, "silo")
    assert t2.dim == 3  # empty silo level still reserves its null index
    assert t2.apply([2, 5, 0]) == [5, 2, 0]  # adjacency-matrix product
    with pytest.raises(DimensionMismatch):
        t.apply([1, 2])


def test_polynomial(demo):
    t, trace = e_adjacency_tensor(demo, "silo")
    poly = t.polynomial()
    assert poly.evaluate([1] * t.dim) == trace.r_h * demo.p
    assert poly.evaluate([0] * t.dim) == 0
    single = HbGraph.from_dicts(("v1", "v2"), [{"v1": 2, "v2": 1}])
    p = elementary_tensor(single).polynomial()
    assert p.monomials == {((1, 2, 1), (2, 1, 1)): 3}
    assert p.evaluate([1, 1]) == 3
    for h in small_instances(count=3, seed=41):
        t, _ = e_adjacency_tensor(h, "layered")
        poly = t.polynomial()
        z = [Fraction(k % 3, 2) for k in range(t.dim)]
        brute = sum((v * math.prod(z[j - 1] for j in idx) for idx, v in dense_tuples(t)), Fraction(0))
        assert poly.evaluate(z) == brute
        # one monomial per entry, keyed by the entry's own runs
        assert list(poly.monomials) == list(t._entries)
    with pytest.raises(DimensionMismatch):
        poly.evaluate([1])
    # a layered monomial at r_H = 10**6 holds its edge's runs and one padding run
    h = HbGraph.from_dicts(("a", "b"), [{"a": 10**6}, {"a": 1, "b": 1}])
    t, _ = e_adjacency_tensor(h, LAYERED)
    poly = t.polynomial()
    assert list(poly.monomials) == list(t._entries)
    assert [len(runs) for runs in poly.monomials] == [1, 2]
    assert poly.evaluate([1] * t.dim) == t.total_sum() == 2 * 10**6


def test_weights_scale_linearly(demo):
    weights = [2, 3, 5, 7]
    weighted = HbGraph(demo.vertices, demo.edges, weights=weights)
    by_restriction = {
        tuple(sorted((demo.vertex_index(x) + 1, m) for x, m in e.mult.items())): w
        for e, w in zip(demo.edges, weights)
    }
    for approach in APPROACHES:
        base, trace = e_adjacency_tensor(demo, approach)
        scaled, _ = e_adjacency_tensor(weighted, approach)
        for key, value in base.canonical_items():
            restriction = tuple(sorted(Counter(i for i in key if i <= demo.n).items()))
            assert scaled.get(key) == value * by_restriction[restriction]
        assert scaled.total_sum() == sum(Fraction(trace.r_h) * w for w in weights)


def test_full_items(demo, monkeypatch):
    t, _ = e_adjacency_tensor(demo, "silo")
    assert len(t.canonical_items()) == 4
    full = t.full_items()
    assert len(full) == t.logical_nonzero_count()
    assert len(full) == 30 + 20 + 30 + 5
    counted = Counter(idx for idx, _ in full)
    assert all(c == 1 for c in counted.values())
    empty = SymTensor(order=2, dim=3, entries={})
    assert empty.full_items() == []
    # an empty tensor emits nothing, at any order
    assert SymTensor(order=10**9, dim=3, entries={}).full_items() == []
    # one edge of 11 distinct vertices has 11! > MAX_FULL_RECORDS logical
    # entries; the export is refused before any permutation is made
    names = tuple("abcdefghijk")
    wide, _ = e_adjacency_tensor(HbGraph.from_dicts(names, [dict.fromkeys(names, 1)]), "silo")
    assert math.factorial(11) > MAX_FULL_RECORDS
    monkeypatch.setattr(tensor_module, "_distinct_permutations", None)
    with pytest.raises(DomainError, match=f"would emit 39916800 records .limit {MAX_FULL_RECORDS}"):
        wide.full_items()


def test_export_full_is_sorted_distinct_permutations():
    for key in [(1,), (1, 1), (1, 2), (1, 1, 2), (1, 2, 3), (1, 1, 2, 2, 3), (2, 2, 2, 4)]:
        t = SymTensor(order=len(key), dim=4, entries={key: 1})
        perms = [idx for idx, _ in t.full_items()]
        assert perms == sorted(set(itertools.permutations(key)))


def test_export_full_at_large_order():
    t, _ = e_adjacency_tensor(HbGraph.from_dicts(("a",), [{"a": 3000}]), "silo")
    assert t.full_items() == [((1,) * 3000, Fraction(3000))]


def test_export_full_refuses_a_huge_entry_before_counting(monkeypatch):
    """The layered entry of {a, b} at r_H = 10**5 has 10**5! permutations; its
    log-gammas refuse it before any multinomial is built."""
    h = HbGraph.from_dicts(("a", "b"), [{"a": 10**5}, {"a": 1, "b": 1}])
    t, _ = e_adjacency_tensor(h, LAYERED)
    monkeypatch.setattr(tensor_module, "_multinomial", None)
    with pytest.raises(DomainError, match=f"more than {10 * MAX_FULL_RECORDS} records"):
        t.full_items()


def test_log10_multinomial_is_a_lower_bound_less_one_digit():
    rng = random.Random(101)
    cases = [[(1, 1, 1), (2, 1, 1), (3, 10**20 - 2, 1)], [(1, 10**15, 1), (2, 3, 1)]]
    cases += [[(1, 1, 1)] * 20, [(1, 1, 20)], [(1, 2, 1), (2, 1, 500), (502, 3, 7)]]
    for _ in range(200):
        top = rng.choice([3, 300, 3000])
        count = rng.randint(1, 5)
        cases.append([(i, rng.randint(1, top), rng.randint(1, 3)) for i in range(count)])
    for runs in cases:
        r = sum(m * c for _, m, c in runs)
        exact = math.log10(_multinomial(runs))
        bound = _log10_multinomial(runs, r)
        assert bound <= exact - 1
        if r < 10**5:  # the float error is negligible here
            assert bound > exact - 1 - 1e-6
    assert _log10_multinomial([(1, 1, 1), (2, 2**1000 - 1, 1)], 2**1000) == -math.inf
    # past the float range, a bound only where the multiplicities besides the
    # largest sum past 14, which makes the multinomial exceed 10**4497
    assert _log10_multinomial([(1, 14, 1), (2, 2**1000 - 14, 1)], 2**1000) == -math.inf
    for runs in ([(1, 15, 1), (2, 2**1000 - 15, 1)], [(1, 1, 15), (16, 2**1000 - 15, 1)]):
        assert _log10_multinomial(runs, 2**1000) == math.inf
        assert math.log10(_multinomial(runs)) > 4497
    assert _log10_multinomial([(1, 1, 2**1000)], 2**1000) == math.inf


def test_logical_nonzero_count_past_4300_digits_is_refused(monkeypatch):
    """The layered tensor of {a^M}, {a, b} has 1 + M! nonzero positions, and
    the straightforward and silo ones 1 + M (M - 1).  At M = 10**306 the
    layered multinomial lies past the range of ``math.perm``; it, and the
    5736-digit count at M = 2000, are refused, naming the order, before any
    multinomial is built.  A count of at most 4300 digits is returned."""

    def count(m: int, approach: str) -> int:
        h = HbGraph.from_dicts(("a", "b"), [{"a": m}, {"a": 1, "b": 1}])
        return e_adjacency_tensor(h, approach)[0].logical_nonzero_count()

    assert count(1500, LAYERED) == 1 + math.factorial(1500)  # 4115 digits
    m = 10**306
    assert count(m, STRAIGHTFORWARD) == count(m, SILO) == 1 + m * (m - 1)
    monkeypatch.setattr(tensor_module, "_multinomial", None)
    for m in (2000, 10**306):
        refusal = f"^logical nonzero count at order {m} exceeds 4300 digits$"
        with pytest.raises(DomainError, match=refusal):
            count(m, LAYERED)


def _perms_first(counts: dict[int, int]) -> dict[int, int]:
    """Reference: index i -> number of distinct index permutations that start
    with i, multinomial(counts) * counts[i] / r, exact in integers."""
    r = sum(counts.values())
    total = _multinomial([(i, mu, 1) for i, mu in counts.items()])
    return {i: total * mu // r for i, mu in counts.items()}


def test_perms_first_identity():
    rng = random.Random(61)
    for _ in range(2000):
        counts = {i: rng.randint(1, 6) for i in rng.sample(range(1, 9), rng.randint(1, 5))}
        r = sum(counts.values())
        perms_first = _perms_first(counts)
        for i, mu in counts.items():
            others = math.prod(math.factorial(m) for j, m in counts.items() if j != i)
            expected = math.factorial(r - 1) // (math.factorial(mu - 1) * others)
            assert perms_first[i] == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 5)), max_size=8))
def test_multinomial_matches_factorial_formula(runs):
    """Runs (first, m, c) of c indices at multiplicity m each."""
    counts = [m for m, c in runs for _ in range(c)]
    expected = math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))
    assert _multinomial([(0, m, c) for m, c in runs]) == expected


def test_distribution(demo):
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(demo, approach)
        assert edge_distribution(t, trace, demo.p) == DEMO_COUNTS
    rng = random.Random(43)
    for _ in range(25):
        h = random_hbgraph(rng)
        expected = Counter(int(e.m_cardinality()) for e in h.edges)
        for approach in APPROACHES:
            t, trace = e_adjacency_tensor(h, approach)
            assert edge_distribution(t, trace, h.p) == expected
    # the two mismatches a trace can still have: an r_H other than the tensor
    # order, and more null vertices than the tensor has dimensions
    t, trace = e_adjacency_tensor(demo, "silo")
    with pytest.raises(TraceMismatch, match="trace r_H 4 != tensor order 5"):
        edge_distribution(t, trace._replace(r_h=4), demo.p)
    t, trace = e_adjacency_tensor(HbGraph.from_dicts(("a",), [{"a": 5}]), "straightforward")
    with pytest.raises(TraceMismatch, match="more null vertices than tensor dimensions"):
        edge_distribution(t, trace._replace(approach="silo"), 1)


def test_distribution_of_a_weighted_tensor_is_the_summed_weight():
    vertices, edges = ("a", "b", "c", "d"), [{"a": 1}, {"a": 1, "b": 2}, {"c": 1, "d": 2}]
    for weights, expected in (
        ([2, 1, 1], {1: 2, 3: 2}),
        ([Fraction(1, 2), 1, 1], {1: Fraction(1, 2), 3: 2}),
        ([Fraction(1, 3), Fraction(2, 3), Fraction(4, 3)], {1: Fraction(1, 3), 3: 2}),
    ):
        h = HbGraph.from_dicts(vertices, edges, weights)
        for approach in APPROACHES:
            levels = edge_distribution(*e_adjacency_tensor(h, approach), h.p)
            assert levels == expected
            assert all(map(follows_number_rule, levels.values()))


def test_distribution_checks_the_entries():
    """One canonical entry per hb-edge, each with an original-vertex index."""
    h = HbGraph.from_dicts(("a", "b"), [{"a": 2}, {"b": 1}])
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(h, approach)
        for wrong in (0, 1, 3):
            message = rf"holds 2 canonical entries, not one per hb-edge \({wrong}\)"
            with pytest.raises(TraceMismatch, match=message):
                edge_distribution(t, trace, wrong)
        null = t.dim  # a null index under every approach
        extra = SymTensor(t.order, t.dim, {**dict(t.canonical_items()), (null,) * t.order: 1})
        with pytest.raises(TraceMismatch, match=rf"entry {null}\^2 has no original-vertex"):
            edge_distribution(extra, trace, 3)


def test_a_key_prints_as_runs_capped():
    """Messages print a key's runs, i^m and a run of c indices as i^m*c, at
    most eight of them, so no message builds an r_H-index tuple."""
    h = HbGraph.from_dicts(("a", "b"), [{"a": 10**5}, {"a": 1, "b": 1}])
    t, trace = e_adjacency_tensor(h, LAYERED)
    null = ((3, 2, 1), (4, 1, 10**5 - 2))  # null indices 3..dim, summing to r_H
    bad = SymTensor._from_shares(t.order, t.dim, [*t._entries.items(), (null, 1)])
    message = rf"^entry 3\^2 4\^1\*{10**5 - 2} has no original-vertex index$"
    with pytest.raises(TraceMismatch, match=message):
        reconstruct_edges(bad, trace)
    with pytest.raises(TraceMismatch, match=message):
        edge_distribution(bad, trace, 3)
    many = tuple((2 * k + 1, 1, 1) for k in range(20))
    assert _shown(many) == " ".join(f"{2 * k + 1}^1" for k in range(8)) + " ... (20 runs)"


def test_reconstruction(demo):
    position = {v: k + 1 for k, v in enumerate(demo.vertices)}
    truth = Counter(
        tuple(sorted((position[x], m) for x, m in e.mult.items())) for e in demo.edges
    )
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(demo, approach)
        recovered = Counter(
            tuple(sorted(e.items())) for e in reconstruct_edges(t, trace)
        )
        assert recovered == truth
        rebuilt = reconstruct_hbgraph(t, trace, demo.vertices)
        assert rebuilt.edge_counter() == demo.edge_counter()


def test_reconstruction_keeps_the_edge_order():
    """Entries stay in edge order, so the reconstruction is the input
    hb-graph itself, edge order included, under every approach."""
    rng = random.Random(29)
    for _ in range(40):
        h = random_hbgraph(rng, p_max=8)
        for approach in APPROACHES:
            t, trace = e_adjacency_tensor(h, approach)
            assert reconstruct_hbgraph(t, trace, h.vertices) == HbGraph(h.vertices, h.edges)


def test_reconstruct_hbgraph_checks_the_trace_once(demo, monkeypatch):
    t, trace = e_adjacency_tensor(demo, "silo")
    checks, check = [], tensor_module._check_trace
    monkeypatch.setattr(tensor_module, "_check_trace", lambda *a: checks.append(a) or check(*a))
    reconstruct_hbgraph(t, trace, demo.vertices)
    assert len(checks) == 1
    with pytest.raises(TraceMismatch, match="^expected 7 vertex names, got 2$"):
        reconstruct_hbgraph(t, trace, demo.vertices[:2])
    with pytest.raises(TraceMismatch, match="^trace r_H 4 != tensor order 5$"):
        reconstruct_hbgraph(t, trace._replace(r_h=4), demo.vertices)


def test_hypergraph_tensor_constants():
    uniform = HbGraph.from_dicts(
        ("a", "b", "c"), [{"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 1}]
    )
    t, _ = hypergraph_tensor(uniform)
    assert t.get((1, 2, 3)) == Fraction(1, 2)  # 1/(k_max-1)!
    assert t.get((1, 2, 5)) == Fraction(1, 2)  # (3-2)!/2! at null n+2
    singleton = HbGraph.from_dicts(("a",), [{"a": 1}])
    t, _ = hypergraph_tensor(singleton)
    assert t.canonical_items() == [((1,), Fraction(1))]
    assert t.dim == 1
    with pytest.raises(NotAHypergraph):
        hypergraph_tensor(HbGraph.from_dicts(("a",), [{"a": 2}]))


def test_hypergraph_matches_silo():
    rng = random.Random(47)
    for _ in range(30):
        hg = random_hypergraph(rng)
        direct, trace_direct = hypergraph_tensor(hg)
        via_silo, trace_silo = e_adjacency_tensor(hg, "silo")
        assert direct == via_silo
        assert trace_direct == trace_silo
        assert dict(direct.canonical_items()) == hypergraph_formula(hg)
        assert direct.dim == hg.n + hg.m_range() - 1
        weights = [Fraction(k + 2, 3) for k in range(hg.p)]
        weighted = HbGraph(hg.vertices, hg.edges, weights)
        direct, _ = hypergraph_tensor(weighted)
        assert dict(direct.canonical_items()) == hypergraph_formula(weighted)


def test_cooper_dutle_reduction():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(3, 6)
        k = rng.randint(2, min(3, n))
        vertices = tuple(f"v{i}" for i in range(n))
        supports = set()
        while len(supports) < 3:
            supports.add(tuple(sorted(rng.sample(range(n), k))))
        hg = HbGraph.from_dicts(
            vertices, [{vertices[i]: 1 for i in s} for s in sorted(supports)]
        )
        t, _ = hypergraph_tensor(hg)
        expected = Fraction(1, math.factorial(k - 1))
        assert all(v == expected for _, v in t.canonical_items())
        assert t.dim == n + k - 1


def test_symtensor_validation():
    with pytest.raises(IndexOutOfRange):
        SymTensor(order=2, dim=2, entries={(1, 3): 1})
    with pytest.raises(DomainError):
        SymTensor(order=2, dim=2, entries={(2, 1): 1})
    with pytest.raises(DomainError):
        SymTensor(order=2, dim=2, entries={(1, 1, 1): 1})
    t = SymTensor(order=2, dim=2, entries={(1, 2): 0})
    assert t.canonical_count() == 0


def test_run_keys_hold_shares(demo):
    """The entry (3, 5, 5, 10, 10) of value 1/6 is stored under its runs with
    share 1/6 * 5!/(2! 2!) / 5 = 1, its monomial's coefficient 5 * share."""
    t, _ = e_adjacency_tensor(demo, "silo")
    runs = ((3, 1, 1), (5, 2, 1), (10, 2, 1))
    assert t._entries[runs] == 1 and t.polynomial().monomials[runs] == 5
    assert ((3, 5, 5, 10, 10), Fraction(1, 6)) in t.canonical_items()


# -- run-length storage against a dense-key reference -------------------------


class DenseTensor:
    """Reference storage: one nondecreasing index tuple of length r per entry,
    every query answered from the dense tuples."""

    def __init__(self, order: int, dim: int, entries: dict):
        self.order, self.dim = order, dim
        self.entries = {tuple(k): Fraction(v) for k, v in entries.items() if v != 0}

    def canonical_items(self):
        return sorted(self.entries.items())

    def get(self, idx):
        return self.entries.get(tuple(sorted(idx)), Fraction(0))

    def full(self):
        return [
            (perm, v)
            for key, v in self.canonical_items()
            for perm in sorted(set(itertools.permutations(key)))
        ]

    def logical_nonzero_count(self):
        return len(self.full())

    def total_sum(self):
        return sum((v for _, v in self.full()), Fraction(0))

    def row_sums(self):
        sums = [Fraction(0)] * self.dim
        for perm, v in self.full():
            sums[perm[0] - 1] += v
        return sums

    def apply(self, x):
        out = [Fraction(0)] * self.dim
        for perm, v in self.full():
            out[perm[0] - 1] += v * math.prod(x[j - 1] for j in perm[1:])
        return out

    def polynomial(self):
        """Runs of each permutation's (index, exponent) pairs -> summed logical
        entries of the full expansion."""
        monomials = {}
        for perm, v in self.full():
            runs = pair_runs(sorted(Counter(perm).items()))
            monomials[runs] = monomials.get(runs, Fraction(0)) + v
        return monomials


def pairs(runs: tuple) -> tuple:
    """Reference: one (index, multiplicity) pair per index of ``runs``."""
    return tuple((i, m) for first, m, c in runs for i in range(first, first + c))


def pair_runs(items: list) -> tuple:
    """Reference: ascending (index, multiplicity) pairs joined into maximal
    runs (first, multiplicity, count), one pair at a time."""
    runs = []
    for i, m in items:
        if runs and (runs[-1][0] + runs[-1][2], runs[-1][1]) == (i, m):
            runs[-1] = (runs[-1][0], m, runs[-1][2] + 1)
        else:
            runs.append((i, m, 1))
    return tuple(runs)


def random_dense_entries(rng: random.Random, order: int, dim: int) -> dict:
    entries = {}
    for _ in range(rng.randint(0, 6)):
        key = tuple(sorted(rng.randint(1, dim) for _ in range(order)))
        entries[key] = rng.choice([0, 1, 2, Fraction(1, 3), Fraction(-5, 2), Fraction(7)])
    return entries


def check_against_dense(t: SymTensor, ref: DenseTensor, rng: random.Random) -> None:
    assert t.canonical_items() == ref.canonical_items()
    assert t.canonical_count() == len(ref.entries)
    for key, value in ref.canonical_items():
        perm = list(key)
        rng.shuffle(perm)
        assert t.get(perm) == value
    for _ in range(5):
        idx = [rng.randint(1, t.dim) for _ in range(t.order)]
        assert t.get(idx) == ref.get(idx)
    assert t.row_sums() == ref.row_sums()
    assert [t.row_sum(i) for i in range(1, t.dim + 1)] == ref.row_sums()
    assert t.total_sum() == ref.total_sum()
    assert t.logical_nonzero_count() == ref.logical_nonzero_count()
    x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(t.dim)]
    assert t.apply(x) == ref.apply(x)
    assert t.full_items() == ref.full()
    poly = t.polynomial()
    assert (poly.degree, poly.dim) == (t.order, t.dim)
    assert poly.monomials == ref.polynomial()
    # the same entries, given densely in reverse order, make an equal tensor
    twin = SymTensor(t.order, t.dim, dict(reversed(ref.canonical_items())))
    assert twin == t and hash(twin) == hash(t)
    if ref.entries:
        key = rng.choice(list(ref.entries))
        changed = SymTensor(t.order, t.dim, {**ref.entries, key: ref.entries[key] + 1})
        assert changed != t


def check_dense_spec(order: int, dim: int, entries: dict, rng: random.Random) -> None:
    check_against_dense(SymTensor(order, dim, entries), DenseTensor(order, dim, entries), rng)


def test_rle_storage_matches_dense_reference_seeded():
    rng = random.Random(71)
    for _ in range(150):
        order, dim = rng.randint(1, 5), rng.randint(1, 5)
        entries = random_dense_entries(rng, order, dim)
        check_dense_spec(order, dim, entries, rng)
    for _ in range(40):  # tensors built from run-length keys by the constructions
        h = random_hbgraph(rng, n_max=4, p_max=3, mult_max=2)
        if h.m_range() > 4:
            continue
        if rng.random() < 0.5:
            h = HbGraph(h.vertices, h.edges, weights=[rng.randint(1, 4) for _ in h.edges])
        for approach in APPROACHES:
            t, _ = e_adjacency_tensor(h, approach)
            check_against_dense(t, DenseTensor(t.order, t.dim, dict(t.canonical_items())), rng)


@st.composite
def dense_tensors(draw):
    order, dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    key = st.lists(st.integers(1, dim), min_size=order, max_size=order).map(
        lambda k: tuple(sorted(k))
    )
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return order, dim, draw(st.dictionaries(key, value, max_size=6))


@settings(max_examples=80, deadline=None)
@given(dense_tensors(), st.randoms(use_true_random=False))
def test_rle_storage_matches_dense_reference_hypothesis(spec, rng):
    order, dim, entries = spec
    check_dense_spec(order, dim, entries, rng)


# -- the contraction kernel against the per-index contraction it replaced ----


def perms_first_apply(t: SymTensor, x) -> list[Fraction]:
    """Reference: value * perms_first(i) * prod_j x_j^(m_j - [j = i]) for every
    entry and every index i of its runs."""
    out = [Fraction(0)] * t.dim
    for key, value in t.canonical_items():
        counts = Counter(key)
        for i, perms in _perms_first(counts).items():
            powers = (x[j - 1] ** (m - (j == i)) for j, m in counts.items())
            out[i - 1] += value * perms * math.prod(powers)
    return out


@st.composite
def weighted_hbgraphs(draw):
    """Up to 5 distinct weighted hb-edges of 1-3 vertices with multiplicities
    up to 13, so r_H reaches 39."""
    vertices = [f"v{i}" for i in range(1, draw(st.integers(1, 5)) + 1)]
    edge = st.dictionaries(st.sampled_from(vertices), st.integers(1, 13), min_size=1, max_size=3)
    edges = draw(st.lists(edge, min_size=1, max_size=5, unique_by=lambda e: tuple(sorted(e.items()))))
    weight = st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=4)
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return HbGraph.from_dicts(vertices, edges, weights)


@settings(max_examples=60, deadline=None)
@given(weighted_hbgraphs(), st.randoms(use_true_random=False))
def test_trie_apply_and_size_on_e_adjacency_tensors_hypothesis(h, rng):
    supports = sum(len(e.support()) for e in h.edges)
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(h, approach)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(t.dim)]
        expected = perms_first_apply(t, x)
        assert t.apply(x) == expected
        if t.order <= 4:  # the reference against the dense expansion
            assert expected == dense_apply(t, x)
        # straightforward and silo entries of a level share their padding
        # node, and layered entries one chain of null indices
        at = {i: (i, 1) for i in range(1, t.dim + 1)}
        trie = _trie(t._entries.items(), at)
        assert len(trie[0]) <= supports + trace.r_h
        # one node per index: the trie of the keys expanded to one run per index
        expanded = [(tuple((i, m, 1) for i, m in pairs(k)), s) for k, s in t._entries.items()]
        assert _trie(expanded, at) == trie


@settings(max_examples=60, deadline=None)
@given(weighted_hbgraphs(), st.randoms(use_true_random=False))
@example(HbGraph.from_dicts(("a", "b"), [{"a": 9}, {"a": 1, "b": 2}], [Fraction(1, 3), 3]),
         random.Random(0))
def test_euler_identity_on_e_adjacency_tensors_hypothesis(h, rng):
    """P(z) = sum_j z_j (A z^{r-1})_j exactly: P is homogeneous of degree r,
    and the contraction is (1/r) times its gradient.  Layered keys pad with a
    run of r_H - c indices, so the run-keyed ``evaluate`` reads runs of
    count > 1."""
    for approach in APPROACHES:
        t, _ = e_adjacency_tensor(h, approach)
        poly = t.polynomial()
        assert list(poly.monomials) == list(t._entries)
        z = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(t.dim)]
        assert poly.evaluate(z) == sum(map(operator.mul, z, t.apply(z)))


# -- one share per entry against the per-index formulas it replaced ---------


def perms_first_row_sums(t: SymTensor) -> list[Fraction]:
    """Reference: value * perms_first(i) for every entry and every index i."""
    sums = [Fraction(0)] * t.dim
    for key, value in t.canonical_items():
        counts = Counter(key)
        for i, perms in _perms_first(counts).items():
            sums[i - 1] += value * perms
    return sums


def perms_first_level_weights(t: SymTensor, trace: UniformisationTrace) -> list:
    """Reference for the straightforward level weights 1..r_H - 1: the null row
    split by null multiplicity r_H - j, level j read as acc[j] / (r_H - j)."""
    r_h, null = trace.r_h, t.dim - trace.n_a + 1
    acc = [Fraction(0)] * r_h
    for key, value in t.canonical_items():
        mult = Counter(key)
        if 0 < mult.get(null, 0) < r_h:
            acc[r_h - mult[null]] += value * _perms_first(mult)[null]
    return [acc[j] / (r_h - j) for j in range(1, r_h)]


def null_row_level_weights(t: SymTensor, trace: UniformisationTrace) -> list:
    """Reference for the silo and layered level weights 1..r_H - 1, read off the
    null rows: silo level j = row(n + j) / (r_H - j), layered level j =
    row(n + j) - row(n + j - 1), with row(n) read as 0."""
    r_h, n = trace.r_h, t.dim - trace.n_a
    rows = [Fraction(0)] + perms_first_row_sums(t)[n:]  # rows[j]: row n + j
    if trace.approach == SILO:
        return [rows[j] / (r_h - j) for j in range(1, r_h)]
    assert trace.approach == LAYERED
    return [rows[j] - rows[j - 1] for j in range(1, r_h)]


def perms_first_levels(t: SymTensor, trace: UniformisationTrace, total_edges: int):
    """Reference for edge_distribution from the per-index row sums: levels
    1..r_H - 1 off the null rows, level r_H the rest of total / r_H.  The null
    rows give the levels of a straightforward trace on any tensor, and of the
    other approaches on e-adjacency tensors."""
    if t.canonical_count() != total_edges:
        raise TraceMismatch(
            f"tensor holds {t.canonical_count()} canonical entries, not one per"
            f" hb-edge ({total_edges})"
        )
    n = t.dim - trace.n_a
    for key, _ in t.canonical_items():
        if key[0] > n:
            raise TraceMismatch(f"entry {_shown(_runs(key))} has no original-vertex index")
    if trace.approach == STRAIGHTFORWARD:
        below = perms_first_level_weights(t, trace)
    else:
        below = null_row_level_weights(t, trace)
    top = sum(perms_first_row_sums(t), Fraction(0)) / trace.r_h - sum(below)
    return {c: w for c, w in enumerate(below + [top], 1) if w}


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except TraceMismatch as exc:
        return "TraceMismatch", str(exc)


def straightforward_trace(order: int, dim: int) -> UniformisationTrace:
    return UniformisationTrace(STRAIGHTFORWARD, order)


def follows_number_rule(x) -> bool:
    """The one number rule, ``hbgraph.as_rational``: an int when integral, a
    Fraction otherwise."""
    return type(x) is (int if x.denominator == 1 else Fraction)


def check_number_contract(t: SymTensor, trace: UniformisationTrace, rng: random.Random):
    numbers = [*t.row_sums(), *map(t.row_sum, range(1, t.dim + 1)), t.total_sum()]
    for key, value in t.canonical_items():
        numbers += [value, t.get(key)]
    numbers += [t.get([rng.randint(1, t.dim) for _ in range(t.order)]) for _ in range(5)]
    poly = t.polynomial()
    numbers += poly.monomials.values()
    coordinates = [0, 1, 2, Fraction(1, 2), Fraction(-2, 3)]
    numbers.append(poly.evaluate([1] * t.dim))
    numbers.append(poly.evaluate([rng.choice(coordinates) for _ in range(t.dim)]))
    report = spectral_bound(t, trace)
    numbers += [report.r_h, report.delta, report.delta_star, report.bound]
    assert all(map(follows_number_rule, numbers)), numbers


def test_number_contract_on_e_adjacency_and_random_tensors():
    rng = random.Random(97)
    for k in range(30):
        h = random_hbgraph(rng, n_max=6, p_max=5, mult_max=4)
        if k % 2:
            weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in h.edges]
            h = HbGraph(h.vertices, h.edges, weights)
        for approach in APPROACHES:
            check_number_contract(*e_adjacency_tensor(h, approach), rng)
    values = [1, 3, Fraction(1, 3), Fraction(-5, 2), Fraction(7, 6), Fraction(4, 2), -2]
    for _ in range(100):
        order, dim = rng.randint(1, 5), rng.randint(1, 5)
        entries = {}
        for _ in range(rng.randint(0, 6)):
            entries[tuple(sorted(rng.randint(1, dim) for _ in range(order)))] = rng.choice(values)
        t = SymTensor(order, dim, entries)
        check_number_contract(t, straightforward_trace(order, dim), rng)


def check_shares(t: SymTensor, trace: UniformisationTrace, total_edges: int):
    expected = perms_first_row_sums(t)
    sums = t.row_sums()
    assert sums == expected
    assert all(map(follows_number_rule, sums))
    for i in range(1, t.dim + 1):
        row = t.row_sum(i)
        assert row == expected[i - 1] and follows_number_rule(row)
    assert t.total_sum() == sum(expected, Fraction(0))
    got = outcome(edge_distribution, t, trace, total_edges)
    assert got == outcome(perms_first_levels, t, trace, total_edges)
    if got[0] == "ok":
        assert all(map(follows_number_rule, got[1].values()))


def test_shares_match_perms_first_on_random_tensors():
    rng = random.Random(83)
    values = [1, 3, Fraction(1, 3), Fraction(-5, 2), Fraction(7, 6), -2]
    mismatches = 0
    for _ in range(300):
        order, dim = rng.randint(1, 6), rng.randint(1, 6)
        entries = {}
        for _ in range(rng.randint(0, 6)):
            key = tuple(sorted(rng.randint(1, dim) for _ in range(order)))
            entries[key] = rng.choice(values)
        t, trace = SymTensor(order, dim, entries), straightforward_trace(order, dim)
        total_edges = t.canonical_count() + rng.choice((0, 0, 0, -1, 1))
        check_shares(t, trace, total_edges)
        mismatches += outcome(edge_distribution, t, trace, total_edges)[0] != "ok"
    assert 30 < mismatches < 270  # both outcomes were compared


@settings(max_examples=80, deadline=None)
@given(dense_tensors(), st.integers(-1, 1))
def test_shares_match_perms_first_hypothesis(spec, offset):
    order, dim, entries = spec
    t = SymTensor(order, dim, entries)
    check_shares(t, straightforward_trace(order, dim), t.canonical_count() + offset)


def test_shares_match_perms_first_on_e_adjacency_tensors():
    rng = random.Random(89)
    weights = [lambda: rng.randint(1, 5), lambda: Fraction(rng.randint(1, 9), rng.randint(1, 6))]
    for k in range(60):
        h = random_hbgraph(rng, n_max=6, p_max=5, mult_max=5)
        if k % 3:
            h = HbGraph(h.vertices, h.edges, weights=[weights[k % 3 - 1]() for _ in h.edges])
        degrees = [sum(h.weight(i) * e.multiplicity(v) for i, e in enumerate(h.edges))
                   for v in h.vertices]
        by_level = Counter()
        for i, e in enumerate(h.edges):
            by_level[e.m_cardinality()] += h.weight(i)
        for approach in APPROACHES:
            t, trace = e_adjacency_tensor(h, approach)
            check_shares(t, trace, h.p)
            assert t.row_sums()[: h.n] == degrees
            # one level rule for every approach, against the paper's per-approach rules
            levels = _level_weights(t, trace)
            assert levels == by_level
            below = [levels.get(j, 0) for j in range(1, trace.r_h)]
            if approach == STRAIGHTFORWARD:
                assert below == perms_first_level_weights(t, trace)
            else:
                assert below == null_row_level_weights(t, trace)


# -- range-run keys against the (index, multiplicity) keys they replaced ----


def reference_padding(approach: str, n: int, r_h: int, c: int) -> dict[int, int]:
    """Reference: the padding as a null index -> multiplicity dict."""
    if approach == STRAIGHTFORWARD:
        pad = {n + 1: r_h - c}
    elif approach == SILO:
        pad = {n + c: r_h - c}
    else:
        pad = dict.fromkeys(range(n + c, n + r_h), 1)
    return {i: m for i, m in pad.items() if m}


def reference_key(h: HbGraph, e: Multiset, approach: str, r_h: int) -> tuple:
    """Reference: an index dict of the edge, merged with its padding dict and
    sorted into (index, multiplicity) pairs."""
    counts = {h.vertex_index(x) + 1: m for x, m in e.mult.items()}
    counts.update(reference_padding(approach, h.n, r_h, sum(counts.values())))
    return tuple(sorted(counts.items()))


def two_run_padding(approach: str, n: int, r_h: int, c: int) -> tuple:
    """Reference: the padding as (index, multiplicity) runs, one per null index."""
    if c == r_h:
        return ()
    if approach == STRAIGHTFORWARD:
        return ((n + 1, r_h - c),)
    if approach == SILO:
        return ((n + c, r_h - c),)
    return tuple([(i, 1) for i in range(n + c, n + r_h)])


def two_run_key(h: HbGraph, e: Multiset, approach: str, r_h: int) -> tuple:
    """Reference: the (index, multiplicity) key of an hb-edge, one pair per
    index, its own pairs in support order then its padding's, concatenated."""
    own = tuple((h.vertex_index(x) + 1, m) for x, m in e.mult.items())
    return own + two_run_padding(approach, h.n, r_h, e.m_cardinality())


def two_run_order(pairs: tuple) -> list:
    """Reference: the sort key of (index, multiplicity) keys, as dense keys sort."""
    return [(i, -m) for i, m in pairs]


def is_canonical(runs: tuple) -> bool:
    """Runs (first, multiplicity, count) that ascend, none empty, and are
    maximal: no run continues the one before it at the same multiplicity."""
    if not all(m >= 1 and c >= 1 for _, m, c in runs):
        return False
    return all(
        j >= i + c and not (j == i + c and mj == m)
        for (i, m, c), (j, mj, _) in zip(runs, runs[1:])
    )


def test_padding_runs_ascend_above_the_original_vertices():
    for approach in APPROACHES:
        for n in range(4):
            for r_h in range(1, 41):
                for c in range(1, r_h + 1):
                    runs = padding(approach, n, r_h, c)
                    assert len(runs) == (c < r_h) and is_canonical(runs)
                    assert all(i > n for i, _, _ in runs)
                    assert pairs(runs) == two_run_padding(approach, n, r_h, c)
                    assert dict(pairs(runs)) == reference_padding(approach, n, r_h, c)


# the keys where a padding run continues the edge's last run, or vertex runs join
MERGE_CASES = [
    # layered level 1 on vertex n at multiplicity 1: (2, 1, 1) and (3, 1, 2) join
    HbGraph.from_dicts(("a", "b"), [{"b": 1}, {"a": 3}]),
    # silo at r_H = 2: {b} pads with (n + 1, 1, 1), which continues b
    HbGraph.from_dicts(("a", "b"), [{"b": 1}, {"a": 1, "b": 1}]),
    # straightforward: {a, b^2} at r_H = 5 pads with (n + 1, 2, 1), continuing b^2
    HbGraph.from_dicts(("a", "b"), [{"a": 1, "b": 2}, {"a": 5}]),
    # consecutive vertices at one multiplicity, weighted
    HbGraph.from_dicts(("a", "b", "c"), [{"a": 2, "b": 2, "c": 2}, {"b": 1}], [2, Fraction(1, 3)]),
]


@settings(max_examples=80, deadline=None)
@given(weighted_hbgraphs(), st.booleans())
@example(MERGE_CASES[0], False)
@example(MERGE_CASES[1], False)
@example(MERGE_CASES[2], True)
@example(MERGE_CASES[3], True)
def test_e_adjacency_keys_match_dict_merge_sort_hypothesis(h, weighted):
    """Keys, shares and edge order against the (index, multiplicity) keys the
    range runs replaced, and those against the dict-merge-sort keys; the
    dense view alone sorts."""
    if not weighted:
        h = HbGraph(h.vertices, h.edges)
    r_h = h.m_range()
    supports = sum(len(e.support()) for e in h.edges)
    for approach in APPROACHES:
        t, _ = e_adjacency_tensor(h, approach)
        expected = {two_run_key(h, e, approach, r_h): h.weight(i) for i, e in enumerate(h.edges)}
        assert list(expected) == [reference_key(h, e, approach, r_h) for e in h.edges]
        assert {pairs(key): share for key, share in t._entries.items()} == expected
        assert [pairs(key) for key in t._entries] == list(expected)
        dense_order = [pairs(_runs(key)) for key, _ in t.canonical_items()]
        assert dense_order == sorted(expected, key=two_run_order)
        assert all(is_canonical(key) and _runs(_dense(key)) == key for key in t._entries)
        assert sum(map(len, t._entries)) <= supports + h.p
        assert list(t._entries) == _edge_keys(h, approach, r_h)
    for e in h.edges:
        key = two_run_key(h, e, STRAIGHTFORWARD, e.m_cardinality())
        (runs, share), = mset_hypermatrix(e, normalized=True)._entries.items()
        assert (pairs(runs), share) == (key, 1) and is_canonical(runs)


def multiset_key(h: HbGraph, e: Multiset, approach: str, r_h: int) -> tuple:
    """Reference: an hb-edge's key read from its multiset by vertex name, one
    run (position, multiplicity, 1) per support element and then its padding,
    a run that continues the one before it at its multiplicity joined to it.
    A non-integer multiplicity stays in the key as it is."""
    own = [(h.vertex_index(x) + 1, m, 1) for x, m in e.mult.items()]
    key = []
    for first, m, c in own + list(padding(approach, h.n, r_h, e.m_cardinality())):
        if key and (key[-1][0] + key[-1][2], key[-1][1]) == (first, m):
            first, _, before = key.pop()
            c += before
        key.append((first, m, c))
    return tuple(key)


@st.composite
def spread_hbgraphs(draw, natural: bool = True):
    """Up to 5 distinct hb-edges over up to 8 vertices, their supports drawn
    from some of them, so that isolated vertices fall between the supports,
    and each mult dict written in a drawn order, not the universe order.
    Unless ``natural``, a multiplicity may be a non-integer ``Fraction``."""
    vertices = [f"v{i}" for i in range(1, draw(st.integers(1, 8)) + 1)]
    used = draw(st.lists(st.sampled_from(vertices), min_size=1, unique=True))
    mult = st.integers(1, 13)
    if not natural:
        mult |= st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=4)
    edge = st.dictionaries(st.sampled_from(used), mult, min_size=1, max_size=3)
    edges = draw(st.lists(edge, min_size=1, max_size=5, unique_by=lambda e: tuple(sorted(e.items()))))
    return HbGraph.from_dicts(vertices, [dict(draw(st.permutations(list(e.items())))) for e in edges])


# supports {v5, v1} and {v6, v3} written backwards, v2 and v4 isolated between them
SPREAD = HbGraph.from_dicts(
    [f"v{i}" for i in range(1, 7)], [{"v5": 2, "v1": 1}, {"v6": 1, "v3": 3}]
)
HALVED = HbGraph.from_dicts(("a", "b", "c"), [{"c": Fraction(1, 2), "a": 2}, {"b": 1}])


@settings(max_examples=80, deadline=None)
@given(spread_hbgraphs(), spread_hbgraphs(natural=False))
@example(SPREAD, HALVED)
def test_edge_keys_read_off_the_stars_hypothesis(h, fractional):
    """The keys read off the hb-stars in vertex order against the keys read
    from each multiset by vertex name: for any written order of the mult
    dicts and any isolated vertices, and, without raising, on a graph whose
    Fraction multiplicities stay in its keys."""
    r_h = h.m_range()
    for approach in APPROACHES:
        keys = _edge_keys(h, approach, r_h)
        assert keys == [multiset_key(h, e, approach, r_h) for e in h.edges]
        assert keys == [pair_runs(two_run_key(h, e, approach, r_h)) for e in h.edges]
        assert keys == list(e_adjacency_tensor(h, approach)[0]._entries)
    r_h = math.ceil(fractional.m_range())
    for approach in APPROACHES:
        keys = _edge_keys(fractional, approach, r_h)
        assert keys == [multiset_key(fractional, e, approach, r_h) for e in fractional.edges]


def test_merge_cases_join_their_runs():
    """The keys of ``MERGE_CASES``, in edge order, per approach."""
    keys = {
        approach: [list(e_adjacency_tensor(h, approach)[0]._entries) for h in MERGE_CASES]
        for approach in APPROACHES
    }
    assert keys[LAYERED][0] == [((2, 1, 3),), ((1, 3, 1),)]
    assert keys[SILO][1] == [((2, 1, 2),), ((1, 1, 2),)]
    assert keys[STRAIGHTFORWARD][2] == [((1, 1, 1), (2, 2, 2)), ((1, 5, 1),)]
    assert keys[STRAIGHTFORWARD][3] == [((1, 2, 3),), ((2, 1, 1), (4, 5, 1))]
    # the dense view sorts: {b} pads to (2, 3, 4), after (1, 1, 1) of {a^3}
    t, _ = e_adjacency_tensor(MERGE_CASES[0], LAYERED)
    assert t.canonical_items() == [((1, 1, 1), 3), ((2, 3, 4), Fraction(1, 2))]


def test_integral_rows_leave_the_tensor_as_ints():
    """Rows are summed from the shares and kept raw, and normalised where they
    leave the tensor: rows summed from Fraction shares that come out integral
    are ints in ``row_sum``, ``row_sums`` and ``spectral_bound``."""
    half = Fraction(1, 2)
    h = HbGraph.from_dicts(("a", "b"), [{"a": 2}, {"b": 2}, {"a": 2, "b": 2}], [half] * 3)
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(h, approach)
        rows = [t.row_sum(i) for i in range(1, t.dim + 1)]
        assert t.row_sums() == rows and {type(x) for x in rows} == {int}
        assert rows[:2] == [2, 2] and sum(rows) == t.total_sum() == 6
        report = spectral_bound(t, trace)
        assert [report.delta, report.delta_star, report.bound] == (
            [2, 2, 6] if approach != LAYERED else [2, 1, 6]
        )
        assert {type(x) for x in (report.delta, report.delta_star, report.bound)} == {int}


def test_layered_build_and_reconstruction_at_large_r_h_stay_small():
    """A layered entry pads with one run, so building the tensor of
    {a^(10^5)}, {a, b}, its levels, verify's key check and the reconstruction
    allocate O(sum |supp e| + p), not O(r_H): one run, not 10^5 pairs."""
    h = HbGraph.from_dicts(("a", "b"), [{"a": 10**5}, {"a": 1, "b": 1}])
    tracemalloc.start()
    try:
        t, trace = e_adjacency_tensor(h, LAYERED)
        levels = _level_weights(t, trace)
        same = Counter(t._entries) == Counter(_edge_keys(h, LAYERED, trace.r_h))
        family = reconstruct_edges(t, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert same and levels == {10**5: 1, 2: 1}
    assert family == [{1: 10**5}, {1: 1, 2: 1}]
    assert list(t._entries) == [((1, 10**5, 1),), ((1, 1, 2), (4, 1, 10**5 - 2))]


def test_non_natural_key_names_the_element():
    a = Multiset(("a", "b", "c"), {"a": 2, "b": Fraction(1, 2)})
    with pytest.raises(NotNatural, match="non-integer multiplicity for 'b'"):
        mset_hypermatrix(a, normalized=True)
