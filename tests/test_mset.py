from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hbtensor import HbGraph, Multiset, NotNatural, UniverseMismatch
from hbtensor.errors import DomainError

U = ("a", "b", "c")


def test_support_drops_zeros():
    m = Multiset(U, {"a": Fraction(6, 5), "b": Fraction(4, 5), "c": 0})
    assert m.support() == ("a", "b")
    assert Multiset(U, {}).support() == ()


def test_support_preserves_universe_order():
    m = Multiset(("z", "y", "x"), {"x": 1, "z": 2})
    assert m.support() == ("z", "x")


def test_m_cardinality_and_cardinality():
    e1 = Multiset(("v1", "v4", "v5"), {"v1": 2, "v4": 2, "v5": 1})
    assert e1.m_cardinality() == 5
    assert e1.cardinality() == 3
    assert Multiset(U, {}).m_cardinality() == 0
    assert Multiset(U, {}).cardinality() == 0
    m = Multiset(U, {"a": Fraction(6, 5), "b": Fraction(4, 5)})
    assert m.m_cardinality() == 2
    assert Multiset(U, {"a": Fraction(1, 2), "b": Fraction(1, 2)}).cardinality() == 2


def test_cognate():
    assert Multiset(U, {"a": 1, "b": 2}).is_cognate(Multiset(U, {"a": 2, "b": 1}))
    assert not Multiset(U, {"a": 1}).is_cognate(Multiset(U, {"b": 1}))
    m = Multiset(U, {"a": 1, "c": 3})
    assert m.is_cognate(m)


def test_includes():
    a = Multiset(U, {"a": 2, "b": 1})
    b = Multiset(U, {"a": 1, "b": 1})
    assert a.includes(b) and not b.includes(a)
    assert not a.includes(Multiset(U, {"a": 3}))
    assert a.includes(Multiset(U, {}))
    assert b <= a
    with pytest.raises(UniverseMismatch):
        a.includes(Multiset(("a", "b"), {"a": 1}))


def test_pointwise_operations():
    x = Multiset(U, {"a": 2})
    y = Multiset(U, {"a": 1, "b": 3})
    assert x.union(y) == Multiset(U, {"a": 2, "b": 3})
    assert x.intersection(y) == Multiset(U, {"a": 1})
    assert x.msum(y) == Multiset(U, {"a": 3, "b": 3})
    assert (x | y) == x.union(y) and (x & y) == x.intersection(y) and (x + y) == x.msum(y)


def test_naturality_tracking():
    x = Multiset(U, {"a": 2})
    y = Multiset(U, {"a": Fraction(1, 2)})
    assert x.natural and not y.natural
    assert not x.msum(y).natural
    # the flag follows the values of a result, not those of its operands
    z = Multiset(U, {"a": Fraction(1, 2), "b": 1})
    assert (z & Multiset(U, {"b": 1})).natural
    assert (y + y).natural and (y + y) == x.intersection(Multiset(U, {"a": 1}))


def test_negative_multiplicity_rejected():
    with pytest.raises(DomainError):
        Multiset(U, {"a": -1})
    with pytest.raises(DomainError):
        Multiset(U, {"a": Fraction(-1, 2)})


def test_vector_repr():
    uni = ("v1", "v2", "v3", "v4", "v5", "v6", "v7")
    e1 = Multiset(uni, {"v1": 2, "v4": 2, "v5": 1})
    e2 = Multiset(uni, {"v2": 3, "v3": 1})
    assert e1.vector_repr() == [2, 0, 0, 2, 1, 0, 0]
    assert e2.vector_repr() == [0, 3, 1, 0, 0, 0, 0]
    assert Multiset(U, {}).vector_repr() == [0, 0, 0]
    assert sum(e1.vector_repr()) == e1.m_cardinality()


def test_from_elements_reads_a_list_with_repetition():
    universe = ("a", "b", "c", "d")
    elements = ["c", "a", "c", "c", "b", "a"]
    random.Random(3).shuffle(elements)
    m = Multiset.from_elements(universe, elements)
    assert m == Multiset(universe, Counter(elements))
    assert m.vector_repr() == [2, 1, 3, 0] and m.natural
    assert Multiset.from_elements(universe, []) == Multiset(universe)
    with pytest.raises(UniverseMismatch):
        Multiset.from_elements(universe, ["a", "e"])


def test_numbered_copies():
    uni = ("v1", "v2", "v3", "v5")
    m = Multiset(uni, {"v1": 2, "v5": 1})
    assert m.numbered_copies().copies == (("v1", 1), ("v1", 2), ("v5", 1))
    assert Multiset(uni, {}).numbered_copies().copies == ()
    e2 = Multiset(uni, {"v2": 3, "v3": 1})
    ncs = e2.numbered_copies()
    assert ncs.copies == (("v2", 1), ("v2", 2), ("v2", 3), ("v3", 1))
    assert ncs.originals == {"v2": 3, "v3": 1}
    with pytest.raises(NotNatural):
        Multiset(uni, {"v1": Fraction(3, 2)}).numbered_copies()


def test_equality_needs_same_universe():
    assert Multiset(("a", "b"), {"a": 1}) != Multiset(("a", "b", "c"), {"a": 1})
    assert Multiset(U, {"a": 1, "b": 0}) == Multiset(U, {"a": 1})


def test_equal_multisets_hash_equal():
    shared = Multiset(U, {}).universe
    third = Fraction(1, 3)
    pairs = [
        (Multiset(shared, {"a": 2, "c": third}), Multiset(shared, {"c": third, "a": 2})),
        # separate but equal universes
        (Multiset(U, {"b": 1, "a": 0}), Multiset(tuple(U), {"b": 1})),
        (Multiset(U, {}), Multiset(list(U), {"c": 0})),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1
    assert Multiset(U, {"a": 1}) != Multiset(U, {"a": 2})


def test_no_repeated_edges_flags_repeats():
    # edges over the graph's own universe, then over separate equal copies
    for universe_of in (lambda vs: vs, lambda vs: tuple(vs)):
        vs = HbGraph(("a", "b", "c")).vertices

        def edge(mult):
            return Multiset(universe_of(vs), mult)

        distinct = HbGraph(vs, [edge({"a": 1}), edge({"a": 2}), edge({"a": 1, "b": 1})])
        assert distinct.no_repeated_edges()
        twice = [edge({"a": 1, "b": 2}), edge({"c": 1}), edge({"b": 2, "a": 1})]
        repeated = HbGraph(vs, twice)
        assert not repeated.no_repeated_edges()
        assert repeated.edge_counter()[edge({"a": 1, "b": 2})] == 2


def test_mutation_blocked():
    m = Multiset(U, {"a": 1})
    with pytest.raises(AttributeError):
        m.natural = False
    m.mult["a"] = 7  # defensive copy
    assert m.multiplicity("a") == 1


# -- algebraic laws -----------------------------------------------------------

multiplicities = st.one_of(
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=5, max_denominator=6),
)


@st.composite
def mset_triples(draw):
    universe = tuple(
        draw(st.lists(st.sampled_from("abcdef"), unique=True, min_size=1, max_size=6))
    )
    def one():
        return Multiset(
            universe,
            {
                x: draw(multiplicities)
                for x in universe
                if draw(st.booleans())
            },
        )
    return one(), one(), one()


@given(mset_triples())
def test_laws_commutative(triple):
    a, b, _ = triple
    assert a.union(b) == b.union(a)
    assert a.intersection(b) == b.intersection(a)
    assert a.msum(b) == b.msum(a)


@given(mset_triples())
def test_laws_associative(triple):
    a, b, c = triple
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.intersection(b).intersection(c) == a.intersection(b.intersection(c))
    assert a.msum(b).msum(c) == a.msum(b.msum(c))


@given(mset_triples())
def test_laws_identity_and_idempotence(triple):
    a, _, _ = triple
    empty = Multiset.empty(a.universe)
    assert a.union(empty) == a
    assert a.intersection(empty) == empty
    assert a.msum(empty) == a
    assert a.union(a) == a
    assert a.intersection(a) == a


@given(mset_triples())
def test_laws_distributive(triple):
    a, b, c = triple
    assert a.msum(b.union(c)) == a.msum(b).union(a.msum(c))
    assert a.msum(b.intersection(c)) == a.msum(b).intersection(a.msum(c))
    assert a.union(b.intersection(c)) == a.union(b).intersection(a.union(c))
    assert a.intersection(b.union(c)) == a.intersection(b).union(a.intersection(c))


@given(mset_triples())
def test_cardinality_identities(triple):
    a, b, _ = triple
    assert a.msum(b).m_cardinality() == a.m_cardinality() + b.m_cardinality()
    assert (
        a.union(b).m_cardinality() + a.intersection(b).m_cardinality()
        == a.m_cardinality() + b.m_cardinality()
    )
    assert (a.includes(b) and b.includes(a)) == (a == b)


@given(mset_triples())
def test_cardinality_below_m_cardinality_for_natural(triple):
    a, _, _ = triple
    if a.natural:
        assert a.cardinality() <= a.m_cardinality()
        all_ones = all(v == 1 for v in a.mult.values())
        assert (a.cardinality() == a.m_cardinality()) == all_ones
