from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from hbtensor import (
    APPROACHES,
    HbGraph,
    SymTensor,
    TraceMismatch,
    e_adjacency_tensor,
    edge_distribution,
    estimate_max_eigenvalue,
    spectral_bound,
)
from hbtensor.cli import main
from hbtensor.errors import DomainError
from hbtensor.io import dumps, hbgraph_from_obj
from hbtensor.tensorfile import tensor_from_coo, tensor_to_coo
from hbtensor.spectral import _contract, _trie
from randgen import random_hbgraph
from test_golden import DEMO, WEIGHTED
from test_tensor import weighted_hbgraphs


def test_bound_demo(demo):
    t, trace = e_adjacency_tensor(demo, "silo")
    report = spectral_bound(t, trace)
    assert (report.delta, report.delta_star, report.bound) == (3, 4, 9)
    t, trace = e_adjacency_tensor(demo, "layered")
    report = spectral_bound(t, trace)
    assert (report.delta, report.delta_star, report.bound) == (3, 3, 8)
    t, trace = e_adjacency_tensor(demo, "straightforward")
    report = spectral_bound(t, trace)
    assert (report.delta, report.delta_star, report.bound) == (3, 7, 12)


def test_bound_uniform_unit_input():
    h = HbGraph.from_dicts(("a", "b", "c"), [{"a": 1, "b": 1}, {"b": 1, "c": 1}])
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(h, approach)
        report = spectral_bound(t, trace)
        assert report.delta_star == 0
        assert report.bound == report.delta + trace.r_h


def delta_star_closed_form(approach: str, r_h: int, levels: dict) -> Fraction:
    """Reference: Delta* from the level weights {c: W_c} of an e-adjacency
    tensor, by the paper's closed form for each approach."""
    below = [(r_h - c, w) for c, w in levels.items() if c < r_h]
    if approach == "straightforward":
        return sum(pad * w for pad, w in below)
    if approach == "silo":
        return max((pad * w for pad, w in below), default=0)
    assert approach == "layered"
    return sum(w for _, w in below)


def test_closed_forms_demo(demo):
    levels = {1: 1, 3: 1, 4: 1, 5: 1}
    for approach, expected in (("straightforward", 7), ("silo", 4), ("layered", 3)):
        t, trace = e_adjacency_tensor(demo, approach)
        assert edge_distribution(t, trace, demo.p) == levels
        assert delta_star_closed_form(approach, 5, levels) == expected
        assert spectral_bound(t, trace).delta_star == expected


def test_closed_forms_match_row_sums():
    rng = random.Random(61)
    for k in range(30):
        h = random_hbgraph(rng)
        if k % 2:
            weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in h.edges]
            h = HbGraph(h.vertices, h.edges, weights)
        for approach in APPROACHES:
            t, trace = e_adjacency_tensor(h, approach)
            report = spectral_bound(t, trace)
            levels = edge_distribution(t, trace, h.p)
            assert report.delta_star == delta_star_closed_form(approach, trace.r_h, levels)
            degrees = [sum(h.weight(i) * e.multiplicity(v) for i, e in enumerate(h.edges))
                       for v in h.vertices]
            assert report.delta == max(degrees)


@settings(max_examples=100, deadline=None)
@given(weighted_hbgraphs())
def test_levels_and_closed_forms_hypothesis(h):
    by_level = Counter()
    for i, e in enumerate(h.edges):
        by_level[e.m_cardinality()] += h.weight(i)
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(h, approach)
        levels = edge_distribution(t, trace, h.p)
        assert levels == {c: w for c, w in by_level.items() if w}
        expected = delta_star_closed_form(approach, trace.r_h, levels)
        assert spectral_bound(t, trace).delta_star == expected


def test_delta_star_is_the_row_scan_on_a_tensor_padded_at_another_level():
    """The closed form holds only where each entry is padded at its own level.
    Moving the silo padding of a level-1 entry to the level-2 null vertex keeps
    the degrees, the total and the levels, but not the null rows."""
    h = HbGraph.from_dicts(("a", "b", "c"), [{"a": 1}, {"b": 1}, {"a": 1, "b": 1, "c": 1}])
    t, trace = e_adjacency_tensor(h, "silo")
    text = tensor_to_coo(t)
    assert "\n2 4 4 1\n" in text
    moved = tensor_from_coo(text.replace("\n2 4 4 1\n", "\n2 5 5 1\n"))
    assert moved.row_sums()[: h.n] == t.row_sums()[: h.n]
    assert moved.total_sum() == t.total_sum()
    levels = edge_distribution(moved, trace, h.p)
    assert levels == edge_distribution(t, trace, h.p) == {1: 2, 3: 1}
    assert spectral_bound(t, trace).delta_star == 4
    assert spectral_bound(moved, trace).delta_star == 2
    assert delta_star_closed_form("silo", 3, levels) == 4


def test_diagonal_dichotomy(demo):
    vertices = ("a", "b")
    h = HbGraph.from_dicts(vertices, [{"a": 3}, {"a": 1, "b": 2}])
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(h, approach)
        assert t.get((1,) * trace.r_h) == trace.r_h  # {a^3} present, r_H = 3
        assert t.get((2,) * trace.r_h) == 0
        for i in range(h.n + 1, t.dim + 1):
            assert t.get((i,) * trace.r_h) == 0
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(demo, approach)
        for i in range(1, t.dim + 1):
            assert t.get((i,) * trace.r_h) == 0


def test_power_iteration_known_matrix():
    pair = HbGraph.from_dicts(("a", "b"), [{"a": 1, "b": 1}])
    t, _ = e_adjacency_tensor(pair, "straightforward")
    result = estimate_max_eigenvalue(t)
    assert result.converged
    assert abs(result.value - 1.0) < 1e-8


def test_power_iteration_zero_and_errors():
    zero = SymTensor(order=3, dim=4, entries={})
    result = estimate_max_eigenvalue(zero)
    assert result.value == 0.0 and result.converged
    order1 = SymTensor(order=1, dim=2, entries={(1,): 1})
    with pytest.raises(DomainError):
        estimate_max_eigenvalue(order1)
    negative = SymTensor(order=2, dim=2, entries={(1, 2): 1, (2, 2): -1})
    with pytest.raises(DomainError):
        estimate_max_eigenvalue(negative)


def test_zero_estimate_is_never_converged():
    # at r_H = M, x_i^(M-1) underflows once x_i is a little below 1; from a
    # random start every term could, and the iterate stood still at quotient
    # 0.0.  From x = 1 it neither collapses nor converges below M
    for m in (3000, 10**4):
        h = HbGraph.from_dicts(("a", "b"), [{"a": m}, {"a": 1, "b": 1}])
        for approach in APPROACHES:
            t, _ = e_adjacency_tensor(h, approach)
            result = estimate_max_eigenvalue(t)
            assert result.value > 0.0
            assert not (result.converged and result.value < m)


def test_estimate_below_bound(demo):
    rng = random.Random(67)
    graphs = [demo] + [random_hbgraph(rng, n_max=6, p_max=5, mult_max=3) for _ in range(15)]
    for h in graphs:
        for approach in APPROACHES:
            t, trace = e_adjacency_tensor(h, approach)
            if t.order < 2:
                continue
            report = spectral_bound(t, trace)
            result = estimate_max_eigenvalue(t)
            assert result.value <= float(report.bound) + 1e-6
            assert result.value >= -1e-12


def test_trace_mismatch(demo):
    t, trace = e_adjacency_tensor(demo, "silo")
    other = SymTensor(order=4, dim=t.dim, entries={})
    with pytest.raises(TraceMismatch):
        spectral_bound(other, trace)


# -- the estimator against the iteration it replaced -------------------------


def dense_twin_classes(t: SymTensor, indices) -> list[list[int]]:
    """Reference: the maximal runs of consecutive ``indices`` whose (entry,
    multiplicity) columns are identical, read off the dense keys."""
    columns = {i: [] for i in indices}
    for e, (key, _) in enumerate(t.canonical_items()):
        for i, m in Counter(key).items():
            columns[i].append((e, m))
    classes = []
    for i in indices:
        if classes and columns[classes[-1][-1]] == columns[i]:
            classes[-1].append(i)
        else:
            classes.append([i])
    return classes


def reference_estimate(t: SymTensor, iterations: int, tol: float = 1e-10, full: bool = False):
    """The dense-key power iteration with its own contraction plan, changed only
    to take the quotient from the last iterate, to start from x = 1 and,
    unless ``full``, to run on the indices that occur in some entry,
    renumbered in order."""
    entries = [(key, float(v)) for key, v in t.canonical_items()]
    r = t.order
    indices = range(1, t.dim + 1) if full else sorted({i for key, _ in entries for i in key})
    at = {i: k for k, i in enumerate(indices)}
    d = len(at)
    if d == 0 or not entries:
        return 0.0, True, 0
    plans = []
    for key, v in entries:
        counts = Counter(key)
        per_index = []
        for i, mu in counts.items():
            perms = math.factorial(r - 1) // math.prod(
                math.factorial(m - (j == i)) for j, m in counts.items()
            )
            powers = [(at[j], m - (1 if j == i else 0)) for j, m in counts.items()]
            per_index.append((at[i], v * perms, [(j, m) for j, m in powers if m]))
        plans.append(per_index)

    def contract(x):
        y = [0.0] * d
        for per_index in plans:
            for i0, coeff, powers in per_index:
                term = coeff
                for j0, m in powers:
                    term *= x[j0] ** m
                y[i0] += term
        return y

    x = [1.0] * d
    converged = False
    used = 0
    for used in range(1, iterations + 1):
        y = contract(x)
        shifted = [yi + xi ** (r - 1) for xi, yi in zip(x, y)]
        nxt = [s ** (1.0 / (r - 1)) for s in shifted]
        top = max(nxt)
        if top == 0.0:
            return 0.0, True, used
        nxt = [v / top for v in nxt]
        if max(abs(a - b) for a, b in zip(nxt, x)) < tol:
            x = nxt
            converged = True
            break
        x = nxt
    y = contract(x)
    return sum(xi * yi for xi, yi in zip(x, y)) / sum(xi**r for xi in x), converged, used


def test_estimate_matches_reference_iteration(demo):
    rng = random.Random(83)
    graphs = [demo] + [random_hbgraph(rng, n_max=6, p_max=5, mult_max=3) for _ in range(12)]
    cut_short = 0
    for k, h in enumerate(graphs):
        if k % 3 == 0:
            h = HbGraph(h.vertices, h.edges, weights=[rng.randint(1, 4) for _ in h.edges])
        for approach in APPROACHES:
            t, _ = e_adjacency_tensor(h, approach)
            if t.order < 2:
                continue
            for iterations in (1, 2, 3, 10_000):
                result = estimate_max_eigenvalue(t, iterations=iterations)
                value, converged, used = reference_estimate(t, iterations)
                if iterations <= 2:
                    # no extrapolation step can fire before the third step
                    assert (result.converged, result.iterations) == (converged, used)
                    # the kernel sums in another order: the value agrees to rounding
                    assert math.isclose(result.value, value, rel_tol=1e-12)
                elif converged:
                    assert result.converged
                    assert math.isclose(result.value, value, rel_tol=1e-9)
                    assert result.iterations <= used
                cut_short += iterations < 4 and not result.converged
    assert cut_short >= 20  # runs stopped before converging were compared


def test_estimate_agrees_with_full_dimension_iteration(demo):
    # the iteration over every index, zero rows included, reaches the same value
    rng = random.Random(89)
    graphs = [demo] + [random_hbgraph(rng, n_max=8, p_max=5, mult_max=3) for _ in range(15)]
    compared = 0
    for h in graphs:
        for approach in APPROACHES:
            t, _ = e_adjacency_tensor(h, approach)
            if t.order < 2:
                continue
            result = estimate_max_eigenvalue(t)
            value, converged, _ = reference_estimate(t, 10_000, full=True)
            if result.converged and converged:
                assert math.isclose(result.value, value, rel_tol=1e-9)
                compared += 1
    assert compared >= 40


def with_isolated_vertices(h: HbGraph, rng: random.Random) -> HbGraph:
    """``h`` with isolated vertices inserted at random places in its vertex order."""
    vertices = list(h.vertices)
    for k in range(rng.randint(1, 4)):
        vertices.insert(rng.randint(0, len(vertices)), f"isolated{k}")
    return HbGraph.from_dicts(vertices, [e.mult for e in h.edges], h.weights)


def test_estimate_ignores_isolated_vertices(demo):
    rng = random.Random(97)
    graphs = [demo] + [random_hbgraph(rng, n_max=6, p_max=5, mult_max=3) for _ in range(12)]
    for k, h in enumerate(graphs):
        if k % 3 == 0:
            h = HbGraph(h.vertices, h.edges, weights=[rng.randint(1, 4) for _ in h.edges])
        padded = with_isolated_vertices(h, rng)
        for approach in APPROACHES:
            t, _ = e_adjacency_tensor(h, approach)
            t_padded, _ = e_adjacency_tensor(padded, approach)
            if t.order < 2:
                continue
            assert t_padded.dim > t.dim
            assert estimate_max_eigenvalue(t_padded) == estimate_max_eigenvalue(t)


def test_an_isolated_vertex_between_twins_does_not_part_them():
    # a and b lie in the same entries at one multiplicity; the renumbering of
    # the support makes them adjacent around the isolated vertex x
    edges = [{"a": 1, "b": 1, "c": 1}, {"c": 2}]
    h = HbGraph.from_dicts(("a", "b", "c"), edges)
    parted = HbGraph.from_dicts(("a", "x", "b", "c"), edges)
    for approach in APPROACHES:
        t, _ = e_adjacency_tensor(h, approach)
        t_parted, _ = e_adjacency_tensor(parted, approach)
        sizes, at = t_parted._pieces()[2:]
        assert sizes[0] == 2 and at[1] == at[3] == (0, 1)
        assert t._pieces()[2] == sizes
        assert estimate_max_eigenvalue(t_parted) == estimate_max_eigenvalue(t)


def check_piece_map(t: SymTensor) -> list[list[int]]:
    """The piece table's classes are the dense columns' runs over the support,
    and its piece map places each of their pieces; returns the classes."""
    support = sorted({i for key, _ in t.canonical_items() for i in key})
    classes = dense_twin_classes(t, support)
    sizes, at = t._pieces()[2:]
    members = [[] for _ in sizes]
    for last, (j, s) in sorted(at.items()):
        members[j] += range(last - s + 1, last + 1)
    assert members == classes and sizes == list(map(len, classes))
    return classes


def check_twin_classes(t: SymTensor) -> tuple[list[list[int]], list]:
    """The classes are the dense columns' runs, the piece trie contracts to
    each class's summed rows exactly, and the estimate is the reference
    iteration's.  Returns the classes and the trie's nodes."""
    classes = check_piece_map(t)
    sizes, at = t._pieces()[2:]
    # at one positive value per class, distinct across classes, node j's rows
    # are its members' rows
    xs = [Fraction(j + 2, 2 * j + 1) for j in range(len(sizes))]
    x = [Fraction(0)] * t.dim
    for xj, c in zip(xs, classes):
        for i in c:
            x[i - 1] = xj
    rows = t.apply(x)
    nodes, inner, shares = _trie(t._entries.items(), at)
    y = _contract(nodes, inner, shares, xs, [Fraction(0)] * len(sizes))
    assert y == [sum(rows[i - 1] for i in c) for c in classes]
    if t.order >= 2:
        result = estimate_max_eigenvalue(t, iterations=1_000)
        value, converged, _ = reference_estimate(t, 1_000)
        if result.converged and converged:
            assert math.isclose(result.value, value, rel_tol=1e-9)
    return classes, nodes


@settings(max_examples=60, deadline=None)
@given(weighted_hbgraphs())
def test_twin_classes_and_their_iteration_hypothesis(h):
    levels = {e.m_cardinality() for e in h.edges}
    supports = sum(len(e.support()) for e in h.edges)
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(h, approach)
        classes, nodes = check_twin_classes(t)
        if approach == "layered":
            nulls = sum(c[0] > h.n for c in classes)
            assert nulls <= sum(c < trace.r_h for c in levels)
        # a layered tensor's null chain has at most one node per level below r_H
        nulls = sum(c < trace.r_h for c in levels) if approach == "layered" else trace.r_h
        assert len(nodes) <= supports + nulls


@st.composite
def general_tensors(
    draw,
    orders=st.integers(1, 6),
    values=st.fractions(min_value=Fraction(1, 4), max_value=9, max_denominator=4),
):
    """A ``SymTensor`` of up to 5 entries of order ``orders`` (1-6), each of
    ``values`` (positive by default), as a COO file can hold them: each key
    is ranges of 1-4 consecutive indices at one multiplicity, each after 0-4
    unused indices, so that a key may leave a gap of several indices and
    resume after it at another multiplicity."""
    r = draw(orders)
    keys = []
    for _ in range(draw(st.integers(1, 5))):
        key, i = [], 0
        while len(key) < r:
            i += draw(st.integers(0, 4)) + 1
            m = draw(st.integers(1, r - len(key)))
            for _ in range(draw(st.integers(1, min(4, (r - len(key)) // m)))):
                key += [i] * m
                i += 1
            i -= 1
        keys.append(tuple(key))
    entries = {key: draw(values) for key in keys}
    dim = max(map(max, keys)) + draw(st.integers(0, 2))
    return SymTensor(r, dim, entries)


@settings(max_examples=150, deadline=None)
@given(general_tensors())
def test_twin_classes_of_general_tensors_hypothesis(t):
    check_twin_classes(t)


@settings(max_examples=150, deadline=None)
@given(general_tensors(st.integers(1, 5), st.fractions(-9, 9, max_denominator=4)))
def test_piece_table_of_signed_tensors_hypothesis(t):
    """The piece table against references kept here: every row against a
    dense difference array over the shares, the largest row over any range
    against the rows', 0 over none, at most 2 (runs) + 1 pieces, and the
    twin classes and piece map against the dense columns."""
    steps = [0] * (t.dim + 2)
    for runs, share in t._entries.items():
        for i, m, c in runs:
            steps[i] += share * m
            steps[i + c] -= share * m
    rows = list(accumulate(steps[1:-1]))
    assert t.row_sums() == rows
    assert [t.row_sum(i) for i in range(1, t.dim + 1)] == rows
    for lo in range(1, t.dim + 2):
        assert t._rows_to(lo - 1) == rows[: lo - 1]
        for hi in range(lo - 1, t.dim + 1):
            assert t._row_max(lo, hi) == max(rows[lo - 1 : hi], default=0)
    assert len(t._pieces()[1]) <= 2 * sum(map(len, t._entries)) + 1
    check_piece_map(t)


@pytest.mark.parametrize(
    "entries, classes",
    [
        # both keys hold 1 and 3, across the gap at 2, at one multiplicity: twins
        ({(1, 1, 3, 3): 1, (1, 3, 4, 4): 2}, [[1, 3], [4]]),
        # the first key resumes at 3 at another multiplicity: no longer twins
        ({(1, 1, 3, 3, 3, 3): 1, (1, 3, 4, 4, 4, 4): 2}, [[1], [3], [4]]),
        # a key that starts after the gap and ends nowhere before it
        ({(1, 1, 3, 3): 1, (3, 3, 4, 4): 1}, [[1], [3], [4]]),
        # a gap of several indices, bridged by every key at one multiplicity
        ({(1, 1, 6, 6): 1, (1, 6, 7, 7): 1}, [[1, 6], [7]]),
    ],
)
def test_a_gap_joins_the_pieces_whose_runs_resume_at_one_multiplicity(entries, classes):
    order = len(next(iter(entries)))
    t = SymTensor(order, 8, entries)
    assert check_twin_classes(t)[0] == classes


def highmult_shaped(rng: random.Random) -> HbGraph:
    """40 vertices and 40 distinct hb-edges of 1-3 vertices with multiplicities
    up to 120: one of m-cardinality r_H = 300, one of m-cardinality 1."""
    vertices = [f"v{i}" for i in range(1, 41)]
    edges = [{"v1": 120, "v2": 120, "v3": 60}, {"v4": 1}]
    while len(edges) < 40:
        e = {v: rng.randint(1, 99) for v in rng.sample(vertices, rng.randint(1, 3))}
        if e not in edges:
            edges.append(e)
    return HbGraph.from_dicts(vertices, edges)


def sparse_shaped(rng: random.Random) -> HbGraph:
    """120 vertices and 120 distinct hb-edges of 1-4 vertices with multiplicities
    1-4: one of m-cardinality r_H = 16."""
    vertices = [f"v{i}" for i in range(1, 121)]
    edges = [{v: 4 for v in vertices[:4]}]
    while len(edges) < 120:
        e = {v: rng.randint(1, 4) for v in rng.sample(vertices, rng.randint(1, 4))}
        if e not in edges:
            edges.append(e)
    return HbGraph.from_dicts(vertices, edges)


def test_extrapolation_halves_silo_iterations():
    # silo's plain iteration has one slow mode (hundreds of steps); the
    # extrapolation step removes it
    for h in (sparse_shaped(random.Random(107)), highmult_shaped(random.Random(101))):
        t, trace = e_adjacency_tensor(h, "silo")
        assert trace.r_h in (16, 300)
        result = estimate_max_eigenvalue(t)
        value, converged, used = reference_estimate(t, 10_000)
        assert result.converged and converged
        assert 2 * result.iterations <= used
        assert round(result.value, 9) == round(value, 9)


@st.composite
def small_hbgraphs(draw):
    """Up to 4 distinct hb-edges of 1-3 vertices with multiplicities up to 4,
    unweighted or with weights 1-5."""
    vertices = [f"v{i}" for i in range(1, draw(st.integers(1, 4)) + 1)]
    edge = st.dictionaries(st.sampled_from(vertices), st.integers(1, 4), min_size=1, max_size=3)
    edges = draw(
        st.lists(edge, min_size=1, max_size=4, unique_by=lambda e: tuple(sorted(e.items())))
    )
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 5), min_size=len(edges), max_size=len(edges)))
    return HbGraph.from_dicts(vertices, edges, weights)


@settings(max_examples=100, deadline=None)
@given(small_hbgraphs())
def test_estimate_matches_reference_hypothesis(h):
    for approach in APPROACHES:
        t, trace = e_adjacency_tensor(h, approach)
        if t.order < 2:
            continue
        result = estimate_max_eigenvalue(t, iterations=2_000)
        assert 0.0 <= result.value
        assert Fraction(result.value) <= spectral_bound(t, trace).bound
        value, converged, _ = reference_estimate(t, 2_000)
        if result.converged and converged:
            assert math.isclose(result.value, value, rel_tol=1e-9)


def test_extrapolation_never_converges_to_a_wrong_value():
    # two blocks with the same eigenvalue 300: the balance between them
    # drifts, a slow mode that no jump may pass off as the limit
    h = HbGraph.from_dicts(("a", "b"), [{"b": 300}, {"a": 1}])
    converged = 0
    for approach in APPROACHES:
        t, _ = e_adjacency_tensor(h, approach)
        result = estimate_max_eigenvalue(t)
        assert not (result.converged and abs(result.value - 300) > 3e-7)
        converged += result.converged
    assert converged >= 1  # the layered run converges


def test_estimate_converges_where_float_coefficients_overflowed(tmp_path, capsys):
    # layered padding puts up to 300 distinct indices in an entry, so the
    # dense-key iteration's row coefficients reach 299!, beyond a float
    graphs = [HbGraph.from_dicts(("a", "b"), [{"b": 300}, {"a": 1}])]
    graphs.append(highmult_shaped(random.Random(101)))
    for k, h in enumerate(graphs):
        t, trace = e_adjacency_tensor(h, "layered")
        assert t.order == 300
        with pytest.raises(OverflowError):
            reference_estimate(t, iterations=1)
        result = estimate_max_eigenvalue(t)
        assert result.converged
        assert 0 < Fraction(result.value) <= spectral_bound(t, trace).bound
        path = tmp_path / f"g{k}.json"
        edges = [{"mult": dict(e.mult)} for e in h.edges]
        path.write_text(dumps({"vertices": list(h.vertices), "edges": edges}))
        assert main(["verify", str(path), "--approach", "lay"]) == 0
        report = json.loads(capsys.readouterr().out)["bound"]
        assert report["converged"] is True


# (value.hex(), converged, iterations) of estimate_max_eigenvalue(t),
# bit for bit.  Layered demo holds the one class here that a gap parts, v6 and
# two null vertices: two trie nodes on one coordinate, x and x^2.
ESTIMATES = {
    ("demo", "straightforward"): ("0x1.ed3d5424f7b9cp+1", True, 30),
    ("demo", "silo"): ("0x1.8406003b2ae5cp+1", True, 247),
    ("demo", "layered"): ("0x1.2bbd427782d90p+1", True, 42),
    ("weighted", "straightforward"): ("0x1.a6f357f7dbf4ap+2", True, 20),
    ("weighted", "silo"): ("0x1.96292fe9d4630p+2", True, 28),
    ("weighted", "layered"): ("0x1.37473a3dcb8fbp+2", True, 26),
    ("sparse", "straightforward"): ("0x1.f9ef779c4b587p+7", True, 20),
    ("sparse", "silo"): ("0x1.4ea5c79d27522p+6", True, 84),
    ("sparse", "layered"): ("0x1.2a22c57b41955p+5", True, 20),
    ("highmult", "straightforward"): ("0x1.70c26e9905dc3p+11", True, 16),
    ("highmult", "silo"): ("0x1.437b1d7e84e0cp+8", True, 546),
    ("highmult", "layered"): ("0x1.a209779605faap+6", True, 37),
}


def test_estimates_hold_bit_for_bit():
    graphs = {
        name: hbgraph_from_obj(obj) for name, obj in (("demo", DEMO), ("weighted", WEIGHTED))
    }
    graphs["sparse"] = sparse_shaped(random.Random(107))
    graphs["highmult"] = highmult_shaped(random.Random(101))
    for (name, approach), expected in ESTIMATES.items():
        t, _ = e_adjacency_tensor(graphs[name], approach)
        result = estimate_max_eigenvalue(t)
        assert (result.value.hex(), result.converged, result.iterations) == expected


def test_layered_estimate_at_r_h_10_9_walks_pieces():
    # b and the 10^9 - 2 null vertices of its padding are one class that the
    # null vertex of level 1 parts: two pieces, each one trie node
    h = HbGraph.from_dicts(("a", "b"), [{"a": 10**9}, {"a": 1, "b": 1}])
    t, _ = e_adjacency_tensor(h, "layered")
    start = time.perf_counter()
    sizes, at = t._pieces()[2:]
    assert sizes == [1, 10**9 - 1] and len(at) == 3
    assert len(_trie(t._entries.items(), at)[0]) == 4
    result = estimate_max_eigenvalue(t)
    assert time.perf_counter() - start < 1.0
    assert result.value == 10**9 and result.converged


def test_float_kernel_matches_exact_apply_within_ulps(demo):
    # the estimator's float contraction against exact apply at the same float
    # iterate.  Every quantity is a sum of products of nonnegative floats, so
    # a coordinate's relative error is at most gamma_K = K u / (1 - K u), u =
    # 2^-53, for K roundings along its worst term: 1 for the share, 4 per trie
    # level on its path (pow, multiply), 1 per sibling and per other term of
    # its row summed before it, and 5 for the row term.  With N trie nodes,
    # K <= 6 N + 6 <= 8 (N + 1) (measured: under 4 u).
    rng = random.Random(103)
    graphs = [demo] + [random_hbgraph(rng, n_max=6, p_max=6, mult_max=5) for _ in range(20)]
    for k, h in enumerate(graphs):
        if k % 2:
            h = HbGraph(h.vertices, h.edges, weights=[rng.randint(1, 9) for _ in h.edges])
        for approach in APPROACHES:
            t, _ = e_adjacency_tensor(h, approach)
            if t.order < 2:
                continue
            at = {i: (i - 1, 1) for i in range(1, t.dim + 1)}
            nodes, inner, shares = _trie(t._entries.items(), at)
            floats = [float(s) for s in shares]
            rounds = 8 * (len(nodes) + 1)
            gamma = Fraction(rounds, 2**53 - rounds)
            for _ in range(3):
                x = [rng.uniform(0.01, 1.0) for _ in range(t.dim)]
                got = _contract(nodes, inner, floats, x, [0.0] * t.dim)
                exact = t.apply([Fraction(xi) for xi in x])
                for g, e in zip(got, exact):
                    assert abs(Fraction(g) - e) <= gamma * e


# -- no converged estimate below the entries' lower bound -------------------


def log_lower_bound(h: HbGraph, approach: str) -> float:
    """Reference: log L, read off the hb-graph, for L the largest w * prod of
    m^(m/r_H) over each hb-edge's multiplicities m, its padding's included.
    The quotient at x_i = (m_i / r_H)^(1/r_H) on one edge's indices is that
    edge's term, so every H-eigenvalue bound from below is at least L."""
    r = h.m_range()
    logs = []
    for i, e in enumerate(h.edges):
        c = e.m_cardinality()
        # a layered padding holds each null index once, and 1^1 adds nothing
        pad = [r - c] if approach != "layered" and c < r else []
        ms = list(e.mult.values()) + pad
        logs.append(math.log(h.weight(i)) + sum(m * math.log(m) for m in ms) / r)
    return max(logs)


# {a^M}, {a, b} at M = 10^7 and 10^9: the iterate still creeps when the stop
# test passes, at a value below L
BELOW_L_REPROS = [
    ({"a": 10**7}, "straightforward", 10**7),
    ({"a": 10**7}, "silo", 10**7),
    ({"a": 10**9}, "straightforward", 10**9),
]
# a scan's r_H = 1044 graph: from some random starts the iterate crept below
# L = 667.88 when the stop test passed; from x = 1 it converges above L
R1044 = HbGraph.from_dicts(
    ("v0", "v1", "v2", "v3"),
    [
        {"v0": 41, "v3": 86},
        {"v0": 372, "v1": 375, "v3": 297},
        {"v0": 66, "v1": 397, "v3": 133},
    ],
)


def test_estimates_below_the_lower_bound_are_not_converged(tmp_path, capsys):
    cases = [
        (HbGraph.from_dicts(("a", "b"), [big, {"a": 1, "b": 1}]), approach, low)
        for big, approach, low in BELOW_L_REPROS
    ]
    cases.append((R1044, "silo", 667.8778139486))
    for k, (h, approach, low) in enumerate(cases):
        assert math.isclose(math.exp(log_lower_bound(h, approach)), low, rel_tol=1e-12)
        path = tmp_path / f"g{k}.json"
        edges = [{"mult": e.mult} for e in h.edges]
        path.write_text(dumps({"vertices": list(h.vertices), "edges": edges}))
        assert main(["verify", str(path), "--approach", approach]) == 0
        report = json.loads(capsys.readouterr().out)["bound"]
        # converged exactly where the estimate reaches L: only R1044's does
        assert report["converged"] is (report["empirical_lambda"] >= low) is (h is R1044)


@st.composite
def spiky_hbgraphs(draw):
    """Up to 3 distinct hb-edges over 3 vertices, some multiplicities large
    enough to make x^(r-1) underflow, with weights or without."""
    vertices = ("a", "b", "c")
    mult = st.sampled_from([1, 2, 3, 7, 40, 300, 1000, 10**4, 10**7])
    edge = st.dictionaries(st.sampled_from(vertices), mult, min_size=1, max_size=3)
    key = lambda e: tuple(sorted(e.items()))  # noqa: E731
    edges = draw(st.lists(edge, min_size=1, max_size=3, unique_by=key))
    weight_lists = st.lists(st.integers(1, 5), min_size=len(edges), max_size=len(edges))
    weights = draw(st.none() | weight_lists)
    return HbGraph.from_dicts(vertices, edges, weights)


@settings(max_examples=40, deadline=None)
@given(spiky_hbgraphs(), st.sampled_from(APPROACHES))
@example(HbGraph.from_dicts(("a", "b"), [{"a": 10**7}, {"a": 1, "b": 1}]), "silo")
@example(R1044, "silo")
def test_no_converged_estimate_below_the_lower_bound_hypothesis(h, approach):
    t, _ = e_adjacency_tensor(h, approach)
    if t.order < 2:
        return
    result = estimate_max_eigenvalue(t)
    if result.converged:
        assert math.log(result.value) >= log_lower_bound(h, approach) + math.log1p(-1e-9)
