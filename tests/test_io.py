from __future__ import annotations

import csv
import random
from fractions import Fraction
from io import StringIO

import pytest

from hbtensor import DomainError, HbGraph, Multiset, ParseError, e_adjacency_tensor, uniformize
from hbtensor.io import (
    dump_hbgraph,
    dump_trace,
    dumps,
    format_rational,
    hbgraph_from_obj,
    hbgraph_to_obj,
    incidence_csv,
    json_to_rational,
    load_hbgraph,
    load_tensor_coo,
    load_trace,
    rational_to_json,
    tensor_from_coo,
    tensor_to_coo,
    trace_from_obj,
    trace_to_obj,
)
from randgen import random_hbgraph


def test_format_rational():
    assert format_rational(5) == "5"
    assert format_rational(Fraction(5, 3)) == "5/3"
    assert format_rational(Fraction(4, 2)) == "2"


def test_hbgraph_round_trip(demo, tmp_path):
    path = tmp_path / "g.json"
    dump_hbgraph(demo, path)
    assert load_hbgraph(path) == demo
    weighted = HbGraph(demo.vertices, demo.edges, weights=[1, 2, Fraction(5, 3), 7])
    dump_hbgraph(weighted, path)
    assert load_hbgraph(path) == weighted


def test_hbgraph_json_accepts_decimal_floats():
    obj = {"vertices": ["a"], "edges": [{"mult": {"a": 1.2}}]}
    import json

    parsed = json.loads(json.dumps(obj), parse_float=Fraction)
    h = hbgraph_from_obj(parsed)
    assert h.edges[0].multiplicity("a") == Fraction(6, 5)


def test_hbgraph_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_hbgraph(bad)
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError) as err:
        hbgraph_from_obj({"vertices": "oops", "edges": []})
    assert "vertices" in str(err.value)
    with pytest.raises(ParseError) as err:
        hbgraph_from_obj({"vertices": ["a"], "edges": [{"mult": {"a": "x/y"}}]})
    assert "edges[0]" in str(err.value)
    with pytest.raises(ParseError):
        hbgraph_from_obj({"vertices": ["a"], "edges": [{"mult": {"b": 1}}]})


def test_number_rule_rejects_what_cannot_be_printed():
    longest = "9" * 4300  # str prints up to 4300 digits
    for ok in (longest, "-" + longest, "1/" + longest, Fraction(int(longest))):
        assert format_rational(json_to_rational(ok, "x")) == format_rational(Fraction(ok))
    for bad in ("1e4300", "1e5000", "-1e5000", "1e-5000", Fraction(1, 10**4300)):
        with pytest.raises(ParseError, match="^edges.0.: weight: number has more than 4300"):
            json_to_rational(bad, "edges[0]: weight")
    for bad in ("9" * 4301, "1/" + "9" * 4301, "9" * 5000):  # a literal too long for int()
        with pytest.raises(ParseError, match="^edges.0.: weight: bad rational literal") as err:
            json_to_rational(bad, "edges[0]: weight")
        # the message repeats a bounded prefix of the literal and its length
        assert len(str(err.value)) < 200 and f"... ({len(bad)} characters)" in str(err.value)
    with pytest.raises(ParseError, match="^x: bad rational literal 'x/y'$"):
        json_to_rational("x/y", "x")
    # Fraction reads each of these; the string rule takes ASCII digits, sign,
    # '.', '/' and exponent only
    for bad in ("1_0", "1/2_0", "\u0661", "\u0662/\u0663", " 3", "3 ", "\t3", "3\n", "1 / 2"):
        with pytest.raises(ParseError, match="^x: bad rational literal"):
            json_to_rational(bad, "x")
    for ok, value in (
        ("1/2", Fraction(1, 2)), ("-3", -3), ("+2", 2), ("1.5E-3", Fraction(3, 2000)),
    ):
        assert json_to_rational(ok, "x") == value
    with pytest.raises(ParseError, match=r"mult\['a'\]: number has more"):
        hbgraph_from_obj({"vertices": ["a"], "edges": [{"mult": {"a": "1e5000"}}]})
    with pytest.raises(ParseError, match="header dim: expected a decimal integer, got '1e5000'"):
        tensor_from_coo("# order=2 dim=1e5000 entries=0\n")
    with pytest.raises(ParseError, match="header dim: number has more than 4300 digits"):
        tensor_from_coo(f"# order=2 dim={'9' * 4301} entries=0\n")
    with pytest.raises(ParseError, match="line 2: number has more"):
        tensor_from_coo("# order=1 dim=1 entries=1\n1 1e5000\n")


def test_printer_refuses_what_cannot_be_printed():
    longest = 10**4300 - 1
    for ok in (longest, -longest, Fraction(1, longest), Fraction(longest, 7)):
        assert rational_to_json(ok) in (ok, f"{ok.numerator}/{ok.denominator}")
    for bad in (10**4300, -(10**4300), Fraction(1, 10**4300), Fraction(10**4300, 7)):
        with pytest.raises(DomainError, match="more than 4300 digits"):
            rational_to_json(bad)
        with pytest.raises(DomainError):
            format_rational(bad)


def test_tensor_coo_round_trip(demo, tmp_path):
    path = tmp_path / "t.coo"
    for approach in ("straightforward", "silo", "layered"):
        t, _ = e_adjacency_tensor(demo, approach)
        path.write_text(tensor_to_coo(t), encoding="utf-8")
        assert load_tensor_coo(path) == t
    t, _ = e_adjacency_tensor(demo, "silo")
    assert tensor_to_coo(t).splitlines()[0] == "# order=5 dim=11 entries=4"


def test_tensor_coo_full_mode_reimports(demo):
    t, _ = e_adjacency_tensor(demo, "straightforward")
    text = tensor_to_coo(t, mode="full")
    assert tensor_from_coo(text) == t


def test_tensor_coo_errors():
    for text, error in (
        ("1 2 1/2\n", "missing '# order=.. dim=.. entries=..' header"),
        ("# order=2 dim=2 entries=2\n1 2 1/2\n", "announces 2 records, found 1"),
        ("# order=2 dim=2 entries=1\n1 2 x\n", "line 2: bad rational literal 'x'"),
        ("# order=2 dim=3 entries=0 order=5\n", "repeated header key order="),
        ("# order=2 dim=3 entries=1 dim=3\n1 2 1\n", "repeated header key dim="),
        # int() reads each of these: 1_0 as 10, +2 as 2, an Arabic-Indic digit as itself
        ("# order=2 dim=1_0 entries=0\n", "header dim: expected a decimal integer"),
        ("# order=+2 dim=3 entries=0\n", "header order: expected a decimal integer"),
        ("# order=2 dim=3 entries=\u0661\n1 2 1\n", "header entries: expected a decimal"),
        ("# order=2 dim=3 entries=\n", "header entries: expected a decimal integer"),
        ("# order=2 dim=12 entries=1\n1 1_0 1\n", "line 2: expected a decimal integer"),
        ("# order=2 dim=3 entries=1\n+1 2 1\n", "line 2: expected a decimal integer"),
        ("# order=2 dim=3 entries=1\n1 \u0662 1\n", "line 2: expected a decimal integer"),
        ("# order=2 dim=3 entries=1\n-1 2 1\n", "line 2: expected a decimal integer"),
        ("# order=2 dim=3 entries=1\n1 2 1_0\n", "line 2: bad rational literal '1_0'"),
        ("# order=2 dim=3 entries=1\n1 2 \u0661\n", "line 2: bad rational literal"),
        # exactly one '#', and only the three keys
        ("### order=2 dim=3 entries=1\n1 2 1\n", "bad header token '##'"),
        ("##order=2 dim=3 entries=1\n1 2 1\n", "unknown header key '#order'"),
        ("# order=2 dim=3 entries=1 foo=7\n1 2 1\n", "unknown header key 'foo'"),
        ("# order=2 dim=3 Entries=1\n1 2 1\n", "unknown header key 'Entries'"),
    ):
        with pytest.raises(ParseError, match=error):
            tensor_from_coo(text)


def test_tensor_coo_one_record_rule():
    same = tensor_from_coo("# order=2 dim=3 entries=2\n1 2 1\n2 1 1\n")
    assert same.canonical_items() == [((1, 2), 1)]
    for text, error in (
        ("# order=2 dim=3 entries=2\n1 2 1\n2 1 2\n", "line 3: conflicting values"),
        ("# order=2 dim=3 entries=1\n1 2 3 1\n", "line 2: expected 2 indices and a value"),
        ("# order=2 dim=3 entries=1\n1 1\n", "line 2: expected 2 indices and a value"),
        ("# order=2 dim=3 entries=1\n1 4 1\n", r"^tensor: index tuple \(1, 4\) outside 1..3"),
        ("# order=2 dim=3 entries=1\n1 1.5 1\n", "line 2: expected a decimal integer"),
        ("# order=2 dim=3 entries=1\ntrue 2 1\n", "line 2: expected a decimal integer"),
    ):
        with pytest.raises(ParseError, match=error):
            tensor_from_coo(text)


def test_trace_integer_fields(demo):
    _, trace = uniformize(demo, "silo")
    assert list(trace_to_obj(trace)) == ["approach", "r_h"]
    for field, value in (
        ("r_h", "5"), ("r_h", Fraction(5)),
        # the fields of older files are ignored, as any unknown key is
        ("n_a", True), ("null_vertices", {"__N1": True}), ("layer_coeffs", {"x": 1}),
        ("edge_provenance", [Fraction(3, 2)]),
    ):
        assert trace_from_obj({**trace_to_obj(trace), field: value}) == trace
    for field, value in (
        ("r_h", True), ("r_h", Fraction(5, 2)), ("r_h", None), ("approach", [["silo"]]),
    ):
        with pytest.raises(ParseError):
            trace_from_obj({**trace_to_obj(trace), field: value})
    for field in ("approach", "r_h"):
        obj = trace_to_obj(trace)
        del obj[field]
        with pytest.raises(ParseError, match=f"missing '{field}'"):
            trace_from_obj(obj)


def test_trace_size_does_not_grow_with_r_h():
    h = HbGraph.from_dicts(("a",), [{"a": 10**5}])
    # p = 10**4 edges over as many vertices, of m-cardinality 1 to 3
    vertices = [f"v{k}" for k in range(10**4)]
    many = HbGraph.from_dicts(vertices, [{v: 1 + k % 3} for k, v in enumerate(vertices)])
    for approach in ("straightforward", "silo", "layered"):
        _, trace = e_adjacency_tensor(h, approach)
        assert trace.n_a == (1 if approach == "straightforward" else 10**5 - 1)
        assert len(dumps(trace_to_obj(trace)).encode()) < 100
        _, trace = e_adjacency_tensor(many, approach)
        assert len(dumps(trace_to_obj(trace)).encode()) < 100


def test_trace_round_trip(demo, tmp_path):
    for approach in ("straightforward", "silo", "layered"):
        _, trace = uniformize(demo, approach)
        path = tmp_path / f"{approach}.trace.json"
        dump_trace(trace, path)
        assert load_trace(path) == trace


def test_incidence_csv(demo):
    text = incidence_csv(demo)
    lines = text.splitlines()
    assert lines[0] == "vertex,e1,e2,e3,e4"
    assert lines[1] == "v1,2,0,0,0"
    assert lines[7] == "v7,0,0,0,0"
    h = HbGraph.from_dicts(("a", "b"), [{"a": Fraction(1, 2)}, {"a": Fraction(4, 2), "b": 3}])
    assert incidence_csv(h) == "vertex,e1,e2\na,1/2,2\nb,0,3\n"
    rng = random.Random(5)
    for _ in range(20):
        h = random_hbgraph(rng, n_max=9, p_max=7)
        matrix = h.incidence_matrix()
        rows = [
            ",".join([v, *map(format_rational, row)])
            for v, row in zip(matrix.vertices, matrix.entries)
        ]
        assert incidence_csv(h).splitlines()[1:] == rows


def test_incidence_csv_header_names_every_edge():
    # a 0 x p matrix: no vertex rows, but the header still names the p hb-edges
    h = HbGraph((), [Multiset((), {}), Multiset((), {})])
    assert incidence_csv(h) == "vertex,e1,e2\n"
    assert incidence_csv(HbGraph(("a",))) == "vertex,\na,\n"


def test_incidence_csv_quotes_ids_that_need_it():
    ids = ["a,b", 'q"x', "c", "line\nbreak", "cr\r", "plain id"]
    h = HbGraph.from_dicts(ids, [{"a,b": 2, "c": 1}, {'q"x': 1}, {"line\nbreak": 3}])
    text = incidence_csv(h)
    rows = list(csv.reader(StringIO(text, newline="")))
    assert len(rows) == len(ids) + 1
    assert all(len(row) == h.p + 1 for row in rows)
    assert [row[0] for row in rows[1:]] == ids
    assert rows[1] == ["a,b", "2", "0", "0"] and rows[2] == ['q"x', "0", "1", "0"]
    # only the ids that need it are quoted; quotes inside are doubled
    assert '\n"q""x",0,1,0\nc,1,0,0\n' in text
    assert "\nplain id,0,0,0\n" in text


def test_incidence_csv_int_and_tuple_ids():
    h = HbGraph.from_dicts([1, (1, 2), 3], [{1: 1, (1, 2): 2}, {3: 1}])
    assert incidence_csv(h) == 'vertex,e1,e2\n1,1,0\n"(1, 2)",2,0\n3,0,1\n'


def test_deterministic_output(demo):
    a = dumps(hbgraph_to_obj(demo))
    b = dumps(hbgraph_to_obj(HbGraph.from_dicts(
        ("v1", "v2", "v3", "v4", "v5", "v6", "v7"),
        ({"v1": 2, "v4": 2, "v5": 1}, {"v2": 3, "v3": 1}, {"v3": 1, "v5": 2}, {"v6": 1}),
    )))
    assert a == b
    t1, _ = e_adjacency_tensor(demo, "silo")
    t2, _ = e_adjacency_tensor(demo, "silo")
    assert tensor_to_coo(t1) == tensor_to_coo(t2)


def test_random_round_trips():
    rng = random.Random(71)
    for _ in range(20):
        h = random_hbgraph(rng)
        assert hbgraph_from_obj(hbgraph_to_obj(h)) == h
        t, trace = e_adjacency_tensor(h, "silo")
        assert tensor_from_coo(tensor_to_coo(t)) == t
        assert trace_from_obj(trace_to_obj(trace)) == trace
