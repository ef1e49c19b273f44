"""Which fault an hb-graph reader names first, byte for byte.

Each input below holds two or three faults: a bad number, a duplicate
vertex id, an unknown element, a negative multiplicity, a bad weight.  The
reader reads every number first, in record order (an edge's mult, then its
weight); then the vertex list is checked, then each hb-edge in edge order,
element by element, then the weights.  The expected messages were recorded
from the reader that built one ``Multiset`` per hb-edge, before the edges
were read straight into the graph's keys and hb-stars.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from hbtensor import DomainError, HbGraph, Multiset, UniverseMismatch
from hbtensor.cli import main
from hbtensor.io import dumps, rational_to_json

# name -> (hb-graph JSON, what ``info`` prints after "error: <file>: ")
FILES = {
    "dup_unknown": (
        {"vertices": ["a", "a", "b"], "edges": [{"mult": {"q": 1}}]},
        "universe contains duplicate identifiers",
    ),
    "dup_neg_badweight": (
        {"vertices": ["a", "b", "b"], "edges": [{"mult": {"a": -1}, "weight": 0}]},
        "universe contains duplicate identifiers",
    ),
    "dup_badweight": (
        {"vertices": ["b", "a", "b"], "edges": [{"mult": {"a": 1}, "weight": "0"}]},
        "universe contains duplicate identifiers",
    ),
    "unknown_then_neg": (
        {"vertices": ["a", "b"], "edges": [{"mult": {"zz": 1, "a": -2}}, {"mult": {"b": -1}}]},
        "element 'zz' not in universe",
    ),
    "neg_then_unknown": (
        {"vertices": ["a", "b"], "edges": [{"mult": {"a": -2, "zz": 1}}]},
        "negative multiplicity for 'a': -2",
    ),
    "neg_e0_unknown_e1": (
        {"vertices": ["a", "b"], "edges": [{"mult": {"b": "-1/2"}}, {"mult": {"c": 1}}]},
        "negative multiplicity for 'b': Fraction(-1, 2)",
    ),
    "unknown_e0_neg_e1": (
        {"vertices": ["a", "b"], "edges": [{"mult": {"c": 1}}, {"mult": {"b": -3}}]},
        "element 'c' not in universe",
    ),
    "badweight_neg": (
        {"vertices": ["a", "b"], "edges": [{"mult": {"a": 1}, "weight": -1}, {"mult": {"b": -1}}]},
        "negative multiplicity for 'b': -1",
    ),
    "badweight_unknown": (
        {"vertices": ["a", "b"], "edges": [{"mult": {"a": 1}, "weight": 0}, {"mult": {"c": 1}}]},
        "element 'c' not in universe",
    ),
    "unknown_badweight_neg": (
        {
            "vertices": ["a"],
            "edges": [{"mult": {"a": 1}, "weight": "-1/2"}, {"mult": {"b": 1, "a": -1}}],
        },
        "element 'b' not in universe",
    ),
    "weight_zero_two": (
        {
            "vertices": ["a", "b"],
            "edges": [
                {"mult": {"a": 1}, "weight": 2},
                {"mult": {"b": 1}, "weight": 0},
                {"mult": {"a": 1}, "weight": -1},
            ],
        },
        "weights must be positive",
    ),
    "badnum_e1_neg_e0": (
        {"vertices": ["a", "b"], "edges": [{"mult": {"a": -1}}, {"mult": {"b": "x/2"}}]},
        "edges[1]: mult['b']: bad rational literal 'x/2'",
    ),
    "badnum_weight_e0_badnum_e1": (
        {
            "vertices": ["a", "b"],
            "edges": [{"mult": {"a": 1}, "weight": "1/0"}, {"mult": {"b": "1_0"}}],
        },
        "edges[0]: weight: bad rational literal '1/0'",
    ),
    "badnum_dup_unknown": (
        {"vertices": ["a", "a"], "edges": [{"mult": {"z": 1}}, {"mult": {"a": "nan"}}]},
        "edges[1]: mult['a']: bad rational literal 'nan'",
    ),
    "bool_dup": (
        {"vertices": ["a", "a"], "edges": [{"mult": {"a": True}}]},
        "edges[0]: mult['a']: expected a number or 'p/q' string, got bool",
    ),
    "nonstr_vertex_neg": (
        {"vertices": ["a", 1], "edges": [{"mult": {"a": -1}}]},
        "'vertices' must be a list of strings",
    ),
}


@pytest.mark.parametrize("name", sorted(FILES))
def test_reader_names_the_first_fault(name, tmp_path, capsys):
    obj, message = FILES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["info", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: {message}\n")


# the same order in the library: (vertices, edges, weights) -> (error, message)
LIBRARY = [
    ((("a", "b"), [{"a": 1}, {"b": -1}], [1]), DomainError, "negative multiplicity for 'b': -1"),
    ((("a",), [{"z": 1}], [1, 2]), UniverseMismatch, "element 'z' not in universe"),
    ((("a", "b"), [{"a": True}], [0]), DomainError, "multiplicity must be a number, got True"),
    ((("a",), [{"a": 1}], [True]), DomainError, "multiplicity must be a number, got True"),
    ((("a", "b"), [{"a": 0.5, "b": -0.25}], None), DomainError,
     "negative multiplicity for 'b': -0.25"),
    ((("a", "a"), [{"z": -1}], [0]), DomainError, "universe contains duplicate identifiers"),
]


@pytest.mark.parametrize("args, error, message", LIBRARY)
def test_from_dicts_names_the_first_fault(args, error, message):
    with pytest.raises(error) as raised:
        HbGraph.from_dicts(*args)
    assert str(raised.value) == message


def test_multiset_edges_are_checked_before_the_weights():
    edges = [Multiset(("a", "b"), {"a": 1}), Multiset(("a",), {"a": 1})]
    with pytest.raises(UniverseMismatch, match="^edge universe differs from vertex list$"):
        HbGraph(("a", "b"), edges, [0, 1])


# Inputs whose first non-integer number comes after integers, where the
# reader first builds a ``Fraction``: name -> (the second edge's JSON record,
# what ``export --format json`` prints for it, or the message after
# "error: <file>: ").  Recorded from the reader that imported ``fractions``
# with the module.
_LONG = "9" * 4301
try:
    int(_LONG)
except ValueError as exc:  # the interpreter's own message, which ``_loads`` repeats
    _LONG_MESSAGE = str(exc)
LAZY = {
    "decimal": ('{"mult": {"a": 2.5}}', {"mult": {"a": "5/2"}}),
    "integral_decimal": ('{"mult": {"a": 3.0}}', {"mult": {"a": 3}}),
    "exponent": ('{"mult": {"a": 1e3}}', {"mult": {"a": 1000}}),
    "true": (
        '{"mult": {"a": true}}',
        "edges[1]: mult['a']: expected a number or 'p/q' string, got bool",
    ),
    "p_over_q": ('{"mult": {"a": "7/2"}}', {"mult": {"a": "7/2"}}),
    "exponent_string": ('{"mult": {"a": "1e400"}}', {"mult": {"a": 10**400}}),
    "too_long": ('{"mult": {"a": %s}}' % _LONG, _LONG_MESSAGE),
    "fraction_weight": ('{"mult": {"a": 1}, "weight": 0.25}', {"mult": {"a": 1}, "weight": "1/4"}),
    "p_over_q_weight": ('{"mult": {"a": 1}, "weight": "6/4"}', {"mult": {"a": 1}, "weight": "3/2"}),
}


@pytest.mark.parametrize("name", sorted(LAZY))
def test_reader_builds_the_first_fraction_as_before(name, tmp_path, capsys):
    record, expected = LAZY[name]
    path = tmp_path / f"{name}.json"
    first = '{"mult": {"a": 1, "b": 2}, "weight": 3}'
    path.write_text('{"vertices": ["a", "b"], "edges": [%s, %s]}' % (first, record))
    code = main(["export", str(path), "--format", "json"])
    captured = capsys.readouterr()
    if isinstance(expected, str):
        assert (code, captured.out, captured.err) == (2, "", f"error: {path}: {expected}\n")
    else:
        edges = [{"mult": {"a": 1, "b": 2}, "weight": 3}, expected]
        if "weight" not in expected:
            edges[1] = {**expected, "weight": 1}
        obj = {"vertices": ["a", "b"], "edges": edges}
        assert (code, captured.out, captured.err) == (0, dumps(obj), "")


def test_printer_on_a_bool_an_over_long_int_and_a_fraction():
    assert [(rational_to_json(b), type(rational_to_json(b))) for b in (True, False)] == [
        (1, int),
        (0, int),
    ]
    with pytest.raises(DomainError, match="^cannot print a number of more than 4300 digits$"):
        rational_to_json(10**4300)
    assert rational_to_json(10**4300 - 1) == 10**4300 - 1
    assert rational_to_json(Fraction(7, 2)) == "7/2"
    assert (rational_to_json(Fraction(6, 3)), type(rational_to_json(Fraction(6, 3)))) == (2, int)
    assert rational_to_json(Fraction(-1, 10**4299)) == f"-1/{10**4299}"
