from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hbtensor
from hbtensor.cli import build_parser, main
from hbtensor.io import dumps, load_trace
from randgen import random_edge

DATA = Path(__file__).parent / "data"
GOLDEN_DEMO = Path(__file__).parent / "golden" / "demo"

DEMO_OBJ = {
    "vertices": ["v1", "v2", "v3", "v4", "v5", "v6", "v7"],
    "edges": [
        {"mult": {"v1": 2, "v4": 2, "v5": 1}},
        {"mult": {"v2": 3, "v3": 1}},
        {"mult": {"v3": 1, "v5": 2}},
        {"mult": {"v6": 1}},
    ],
}


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(dumps(DEMO_OBJ), encoding="utf-8")
    return str(path)


@pytest.fixture
def trivial_file(tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(dumps({"vertices": ["a", "b"], "edges": []}), encoding="utf-8")
    return str(path)


def test_info(demo_file, capsys):
    assert main(["info", demo_file]) == 0
    out = capsys.readouterr().out
    assert "order: 11" in out
    assert "size: 4" in out
    assert "isolated: v7" in out
    assert out.endswith("v5 3 2 2\nv6 1 1 1\nv7 0 0 0\n")  # the vertex table ends it


def test_info_quotes_ids_that_would_split_a_cell(tmp_path, capsys):
    path = tmp_path / "g.json"
    graph = {
        "vertices": ["x y", "z", 'q"', "", "t\tab"],
        "edges": [{"mult": {"x y": 2, "z": 1}}],
    }
    path.write_text(dumps(graph), encoding="utf-8")
    assert main(["info", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert 'isolated: "q\\"" "" "t\\tab"' in lines
    table = lines[lines.index("vertex m-degree degree max-mult") + 1 :]
    assert table == ['"x y" 2 1 2', "z 1 1 1", '"q\\"" 0 0 0', '"" 0 0 0', '"t\\tab" 0 0 0']


def test_info_trivial(trivial_file, capsys):
    assert main(["info", trivial_file]) == 0
    out = capsys.readouterr().out
    assert "order: 0" in out and "size: 0" in out and "m-range: n/a" in out


def test_info_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["info", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_info_unreadable_json_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"vertices": [], "edges": [], "n": ' + "9" * 5000 + "}")
    for path in (deep, long_int):
        assert main(["info", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_number_too_long_to_print_exits_2(demo_file, tmp_path, capsys):
    def graph(text):
        path = tmp_path / "g.json"
        path.write_text('{"vertices": ["a"], "edges": [{"mult": {"a": %s}}]}' % text)
        return str(path)

    for mult in ('"1e5000"', "1e5000"):
        assert main(["info", graph(mult)]) == 2
        assert "mult['a']: number has more than 4300 digits" in capsys.readouterr().err
    longest = "9" * 4300
    assert main(["info", graph(longest)]) == 0
    assert f"m-range: {longest}\n" in capsys.readouterr().out
    weighted = tmp_path / "weighted.json"
    weighted.write_text(dumps({**DEMO_OBJ, "edges": [{"mult": {"v1": 1}, "weight": "1e5000"}]}))
    assert main(["verify", str(weighted), "--approach", "str"]) == 2
    assert "edges[0]: weight: number has more" in capsys.readouterr().err
    out = tmp_path / "t.coo"
    assert main(["tensor", demo_file, "--approach", "str", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].rsplit(" ", 1)[0] + " 1e5000"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", demo_file, "--from-tensor", str(out)]) == 2
    assert "line 2: number has more" in capsys.readouterr().err


def test_off_rule_literals_exit_2(demo_file, tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text('{"vertices": ["a"], "edges": [{"mult": {"a": "1_0"}}]}')
    assert main(["info", str(graph)]) == 2
    assert "mult['a']: bad rational literal '1_0'" in capsys.readouterr().err
    out = tmp_path / "t.coo"
    assert main(["tensor", demo_file, "--approach", "str", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    for header, error in (
        ("#" + lines[0], "bad header token '#'"),
        (lines[0] + " foo=7", "unknown header key 'foo'"),
    ):
        out.write_text("\n".join([header] + lines[1:]) + "\n", encoding="utf-8")
        assert main(["verify", demo_file, "--from-tensor", str(out)]) == 2
        assert error in capsys.readouterr().err


def test_derived_number_too_long_to_print_exits_3(tmp_path, capsys):
    path = tmp_path / "g.json"
    edges = [{"mult": {"a": int("9" * 4300)}}, {"mult": {"b": 1}}]
    path.write_text(dumps({"vertices": ["a", "b"], "edges": edges}))
    # each multiplicity prints, but the order 10**4300 has 4301 digits
    assert main(["info", str(path)]) == 3
    assert capsys.readouterr().err == "error: cannot print a number of more than 4300 digits\n"


def test_value_too_long_to_print_is_refused_before_it_is_built(tmp_path):
    """The layered value 1/(r_H - 1)! of the edge {a, b} has a 456 569-digit
    denominator at r_H = 10**5; the log-gammas refuse it before it is built."""
    env = {**os.environ, "PYTHONPATH": str(Path(hbtensor.__file__).parents[1])}

    def tensor(m: int, approach: str):
        path = tmp_path / f"m{m}.json"
        edges = [{"mult": {"a": m}}, {"mult": {"a": 1, "b": 1}}]
        path.write_text(dumps({"vertices": ["a", "b"], "edges": edges}))
        args = ["tensor", str(path), "--approach", approach, "--out", str(tmp_path / "t.coo")]
        start = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "hbtensor.cli", *args],
            capture_output=True, text=True, env=env, timeout=60,
        )
        return run, time.perf_counter() - start

    for m in (10**5, 10**6):
        run, seconds = tensor(m, "lay")
        assert run.returncode == 3 and seconds < 10
        assert run.stderr == "error: cannot print a number of more than 4300 digits\n"
    # r_H > 1550, but every straightforward value fits: r_H and 1/(r_H - 1)
    run, _ = tensor(10**5, "str")
    assert run.returncode == 0 and run.stderr == ""
    assert (tmp_path / "t.coo").read_text(encoding="utf-8").endswith(" 1/99999\n")


def test_verify_at_r_h_10_9_runs_in_o_of_the_entries(tmp_path):
    """Straightforward {a^(10^9)}, {a, b}: two entries of at most two runs,
    dimension 3 and two levels, so no stage allocates per level or index.
    The child gets a 1 GiB address space, so an O(r_H) stage fails fast."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    path = tmp_path / "huge.json"
    edges = [{"mult": {"a": 10**9}}, {"mult": {"a": 1, "b": 1}}]
    path.write_text(dumps({"vertices": ["a", "b"], "edges": edges}))
    env = {**os.environ, "PYTHONPATH": str(Path(hbtensor.__file__).parents[1])}
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "hbtensor.cli", "verify", str(path), "--approach", "str",
         "--seed", "7"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap,
    )
    seconds = time.perf_counter() - start
    assert (run.returncode, run.stderr) == (0, "")
    report = json.loads(run.stdout)
    assert report["passed"] is True and all(report["checks"].values())
    assert report["bound"]["r_h"] == 10**9 and report["bound"]["within_bound"] is True
    assert seconds < 10


@pytest.mark.parametrize(
    "exc, expected",
    [(MemoryError(), "MemoryError"), (RuntimeError("no luck"), "RuntimeError: no luck")],
)
def test_an_internal_error_exits_4_naming_its_type(demo_file, monkeypatch, capsys, exc, expected):
    def fail(path):
        raise exc

    monkeypatch.setattr(hbtensor.io, "load_hbgraph", fail)
    assert main(["info", demo_file]) == 4
    assert capsys.readouterr().err == f"internal error: {expected}\n"


def test_weight_too_large_for_a_float_exits_3(tmp_path, capsys):
    def verify(digits):
        path = tmp_path / f"w{digits}.json"
        edges = [{"mult": {"a": 2}, "weight": "9" * digits}]
        path.write_text(dumps({"vertices": ["a"], "edges": edges}))
        return main(["verify", str(path), "--approach", "str", "--seed", "7"])

    # the weight prints, but the power iteration's share needs a float
    assert verify(4300) == 3
    assert "entry share is too large for a float" in capsys.readouterr().err
    assert verify(308) == 3  # the share fits a float, twice the share does not
    assert "contraction exceeds the float range" in capsys.readouterr().err
    assert verify(300) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True and report["bound"]["within_bound"] is True
    assert report["bound"]["empirical_lambda"] == 2e300


def test_info_byte_stable(demo_file, capsys):
    main(["info", demo_file])
    first = capsys.readouterr().out
    main(["info", demo_file])
    assert capsys.readouterr().out == first


def test_dual(demo_file, capsys):
    assert main(["dual", demo_file]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["vertices"]) == 4
    assert len(obj["edges"]) == 7
    assert obj["edges"][4]["mult"] == {"~e1": 1, "~e3": 2}
    assert obj["edges"][6]["mult"] == {}


WEIGHTED_OBJ = {
    "vertices": ["a", "b", "c", "d", "e"],
    "edges": [
        {"mult": {"a": 2, "b": 1}, "weight": "1/2"},
        {"mult": {"b": 1, "c": 3, "d": 1}, "weight": "7/3"},
        {"mult": {"d": 2}, "weight": 2},
        {"mult": {"a": 1, "e": 1}, "weight": "5/4"},
    ],
}


def test_uniformize(tmp_path, capsys):
    nulls = {"str": ["__N1"], "sil": ["__N1", "__N2", "__N3", "__N4"],
             "lay": ["__L1", "__L2", "__L3", "__L4"]}  # both graphs have r_H = 5
    path = tmp_path / "g.json"
    for graph in (DEMO_OBJ, WEIGHTED_OBJ):
        path.write_text(dumps(graph), encoding="utf-8")
        for approach in nulls:
            # stdout and --out carry the same plain uniform hb-graph, and no trace
            assert main(["uniformize", str(path), "--approach", approach]) == 0
            printed = capsys.readouterr().out
            uniform = json.loads(printed)
            assert set(uniform) == {"vertices", "edges"}
            assert uniform["vertices"] == graph["vertices"] + nulls[approach]
            out = tmp_path / "u.json"
            assert main(["uniformize", str(path), "--approach", approach, "--out", str(out)]) == 0
            assert capsys.readouterr().out == ""
            assert out.read_bytes() == printed.encode("utf-8")
            assert not list(tmp_path.glob("*.trace.json"))
            # the printed graph is an input like any other: r_H-m-uniform
            assert main(["info", str(out)]) == 0
            assert "k-m-uniform: 5\n" in capsys.readouterr().out
    # the former --trace option is refused
    with pytest.raises(SystemExit) as exc:
        main(["uniformize", str(path), "--approach", "sil", "--trace", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_uniformize_output_feeds_tensor_and_verify(demo_file, tmp_path, capsys):
    """The printed uniform hb-graph needs no padding, so only ``uniformize``,
    which would name null vertices again, refuses its reserved ids."""
    for approach, first_null in (("str", "__N1"), ("sil", "__N1"), ("lay", "__L1")):
        uniform = tmp_path / f"u_{approach}.json"
        assert main(["uniformize", demo_file, "--approach", approach, "--out", str(uniform)]) == 0
        out = tmp_path / f"ut_{approach}.coo"
        assert main(["tensor", str(uniform), "--approach", approach, "--out", str(out)]) == 0
        assert main(["verify", str(uniform), "--approach", approach]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["bound"]["delta_star"] == 0  # every hb-edge is at level r_H
        assert main(["verify", str(uniform), "--from-tensor", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert main(["uniformize", str(uniform), "--approach", approach]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: vertex id '{first_null}' uses the reserved prefix '__'\n"


def test_tensor(demo_file, tmp_path):
    out = tmp_path / "t.coo"
    assert main(["tensor", demo_file, "--approach", "sil", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# order=5 dim=11 entries=4"
    assert len(lines) == 5
    assert (tmp_path / "t.coo.trace.json").exists()
    out2 = tmp_path / "t2.coo"
    assert main(["tensor", demo_file, "--approach", "str", "--out", str(out2)]) == 0
    assert "dim=8" in out2.read_text(encoding="utf-8").splitlines()[0]
    # COO is the one tensor format; the former --format option is refused
    with pytest.raises(SystemExit) as exc:
        main(["tensor", demo_file, "--approach", "sil", "--format", "json", "--out", str(out)])
    assert exc.value.code == 2


def test_tensor_trace_option_is_gone(demo_file, tmp_path):
    # the trace always goes to <out>.trace.json, where verify --from-tensor looks
    with pytest.raises(SystemExit) as exc:
        main(["tensor", demo_file, "--approach", "sil", "--out", str(tmp_path / "t.coo"),
              "--trace", str(tmp_path / "elsewhere.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "t.coo").exists()


def test_tensor_rejects_repeated_edges(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(
        dumps({"vertices": ["a"], "edges": [{"mult": {"a": 1}}, {"mult": {"a": 1}}]}),
        encoding="utf-8",
    )
    assert main(["tensor", str(path), "--approach", "sil", "--out", str(tmp_path / "x")]) == 3


def test_verify(demo_file, capsys):
    for approach in ("str", "sil", "lay"):
        assert main(["verify", demo_file, "--approach", approach]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert all(report["checks"].values())
        assert report["bound"]["within_bound"] is True


def test_verify_bound_option_is_gone(demo_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", demo_file, "--approach", "sil", "--bound"])
    assert exc.value.code == 2
    capsys.readouterr()
    # the bound report is the ``bound`` field of the default output
    assert main(["verify", demo_file, "--approach", "sil"]) == 0
    report = json.loads(capsys.readouterr().out)["bound"]
    assert report["delta"] == 3 and report["delta_star"] == 4 and report["bound"] == 9


def test_verify_zero_estimate_is_not_converged(tmp_path, capsys):
    # layered: b is no twin of the null vertices once {b^2} is an edge too
    edges = [{"mult": {"a": 10000}}, {"mult": {"a": 1, "b": 1}}]
    for approach, seed, more in (("str", "3", []), ("lay", "3", [{"mult": {"b": 2}}])):
        path = tmp_path / f"big_and_small_{approach}.json"
        graph = {"vertices": ["a", "b"], "edges": edges + more}
        path.write_text(dumps(graph), encoding="utf-8")
        assert main(["verify", str(path), "--approach", approach, "--seed", seed]) == 0
        report = json.loads(capsys.readouterr().out)["bound"]
        assert report["empirical_lambda"] == 0.0 and report["converged"] is False


def test_verify_layered_padding_is_one_coordinate(tmp_path, capsys):
    # b and the 999 998 null vertices of its padding are twins: the estimator
    # iterates on two coordinates, where the subtensor on {a} has radius 10^6
    path = tmp_path / "big_and_small.json"
    edges = [{"mult": {"a": 10**6}}, {"mult": {"a": 1, "b": 1}}]
    path.write_text(dumps({"vertices": ["a", "b"], "edges": edges}), encoding="utf-8")
    assert main(["verify", str(path), "--approach", "lay", "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)["bound"]
    assert report["empirical_lambda"] == 1000000.0 and report["converged"] is True


def test_verify_corrupted_tensor(demo_file, tmp_path, capsys):
    out = tmp_path / "t.coo"
    main(["tensor", demo_file, "--approach", "sil", "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].rsplit(" ", 1)[0] + " 9/2"  # tamper with one value
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["verify", demo_file, "--from-tensor", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["checks"]["degree_retrieval"] is False
    assert report["passed"] is False


def test_verify_weighted(tmp_path, capsys):
    path = tmp_path / "weighted.json"
    graph = {
        "vertices": ["a", "b", "c"],
        "edges": [{"mult": {"a": 2, "b": 1}, "weight": 3}, {"mult": {"c": 1}, "weight": 1}],
    }
    path.write_text(dumps(graph), encoding="utf-8")
    for approach in ("str", "sil", "lay"):
        assert main(["verify", str(path), "--approach", approach]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert all(report["checks"].values())


def test_verify_trace_with_wrong_r_h(demo_file, tmp_path, capsys):
    out = tmp_path / "t.coo"
    main(["tensor", demo_file, "--approach", "sil", "--out", str(out)])
    trace = json.loads((tmp_path / "t.coo.trace.json").read_text(encoding="utf-8"))
    trace["r_h"] = 4
    (tmp_path / "t.coo.trace.json").write_text(dumps(trace), encoding="utf-8")
    code = main(["verify", demo_file, "--from-tensor", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "error: trace r_H 4 != tensor order 5\n"


def test_verify_silo_trace_on_straightforward_tensor(tmp_path, capsys):
    path = tmp_path / "single.json"
    path.write_text(dumps({"vertices": ["a"], "edges": [{"mult": {"a": 5}}]}))
    out = tmp_path / "t.coo"
    assert main(["tensor", str(path), "--approach", "str", "--out", str(out)]) == 0
    # silo needs r_H - 1 = 4 null vertices; the tensor has dimension n + 1 = 2
    trace = json.loads((tmp_path / "t.coo.trace.json").read_text(encoding="utf-8"))
    trace["approach"] = "silo"
    (tmp_path / "t.coo.trace.json").write_text(dumps(trace), encoding="utf-8")
    code = main(["verify", str(path), "--from-tensor", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "error: more null vertices than tensor dimensions\n"


def test_verify_reads_old_trace_format(demo_file, tmp_path, capsys):
    """A trace written before the null vertices were derived and the edge order
    kept, with its ``n_a``, ``null_vertices``, ``layer_coeffs`` and
    ``edge_provenance``, reads as the current one does."""
    old = DATA / "demo_sil_old_format.trace.json"
    new = GOLDEN_DEMO / "tensor_sil.file.t.coo.trace.json"
    old_keys = {"n_a", "null_vertices", "layer_coeffs", "edge_provenance"}
    assert old_keys <= json.loads(old.read_text()).keys()
    assert load_trace(old) == load_trace(new)
    coo = tmp_path / "t.coo"
    coo.write_bytes((GOLDEN_DEMO / "tensor_sil.file.t.coo").read_bytes())
    reports = []
    for trace in (old, new):
        (tmp_path / "t.coo.trace.json").write_bytes(trace.read_bytes())
        assert main(["verify", demo_file, "--from-tensor", str(coo), "--seed", "7"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["passed"] is True


def test_verify_trace_with_fractional_r_h(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(dumps({"vertices": ["a", "b"], "edges": [{"mult": {"a": 1, "b": 1}}]}))
    out = tmp_path / "t.coo"
    assert main(["tensor", str(path), "--approach", "str", "--out", str(out)]) == 0
    trace = json.loads((tmp_path / "t.coo.trace.json").read_text(encoding="utf-8"))
    assert trace["r_h"] == 2
    bad = tmp_path / "t.coo.trace.json"
    bad.write_text(dumps(trace).replace('"r_h": 2', '"r_h": 2.5'), encoding="utf-8")
    code = main(["verify", str(path), "--from-tensor", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}: r_h: expected an integer\n"


def test_verify_order_one_input(tmp_path, capsys):
    path = tmp_path / "singletons.json"
    path.write_text(
        dumps({"vertices": ["a", "b"], "edges": [{"mult": {"a": 1}}, {"mult": {"b": 1}}]}),
        encoding="utf-8",
    )
    assert main(["verify", str(path), "--approach", "sil"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["bound"]["empirical_lambda"] is None


def graph_file(tmp_path, name: str, *edges: dict) -> str:
    """An unweighted graph file over the vertices a, b."""
    path = tmp_path / name
    path.write_text(dumps({"vertices": ["a", "b"], "edges": [{"mult": e} for e in edges]}))
    return str(path)


def test_verify_from_tensor_on_a_non_natural_graph(tmp_path, capsys):
    """The reconstruction check reads the graph's keys inside its own ``try``:
    a non-natural graph fails it, and ``verify`` exits 1, not 3."""
    natural = graph_file(tmp_path, "natural.json", {"a": 1}, {"b": 1})
    out = tmp_path / "t.coo"
    assert main(["tensor", natural, "--approach", "sil", "--out", str(out)]) == 0
    halved = graph_file(tmp_path, "halved.json", {"a": "1/2"}, {"b": 1})
    code = main(["verify", halved, "--from-tensor", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["checks"]["reconstruction"] is False
    assert report["passed"] is False


def test_verify_from_tensor_with_an_all_null_entry(tmp_path, capsys):
    path = graph_file(tmp_path, "g.json", {"a": 2}, {"b": 1})
    out = tmp_path / "t.coo"
    assert main(["tensor", path, "--approach", "sil", "--out", str(out)]) == 0
    header, *records = out.read_text(encoding="utf-8").splitlines()
    assert header == "# order=2 dim=3 entries=2"
    out.write_text("\n".join(["# order=2 dim=3 entries=3", *records, "3 3 1"]) + "\n")
    code = main(["verify", path, "--from-tensor", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["checks"]["reconstruction"] is False
    assert report["checks"]["edge_distribution"] is False


def test_verify_from_tensor_reads_the_default_trace(demo_file, tmp_path, capsys):
    for approach in ("str", "sil", "lay"):
        out = tmp_path / f"{approach}.coo"
        assert main(["tensor", demo_file, "--approach", approach, "--out", str(out)]) == 0
        assert main(["verify", demo_file, "--from-tensor", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        # the trace is <tensor>.trace.json and no other file
        trace = tmp_path / f"{approach}.coo.trace.json"
        trace.rename(tmp_path / f"{approach}.json")
        assert main(["verify", demo_file, "--from-tensor", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {trace}")


def test_verify_from_tensor_checks_the_padding(tmp_path, capsys):
    """An entry whose null vertex has moved keeps every row sum and level of
    the original vertices, but not its key."""
    path = tmp_path / "g.json"
    edges = [{"mult": {"a": 1}}, {"mult": {"b": 1, "c": 1}}, {"mult": {"a": 1, "b": 1, "c": 1}}]
    path.write_text(dumps({"vertices": ["a", "b", "c"], "edges": edges}))
    out = tmp_path / "t.coo"
    assert main(["tensor", str(path), "--approach", "sil", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert "1 4 4 1" in lines  # the level-1 edge, padded with __N1 (index 3 + 1)
    out.write_text("\n".join("1 5 5 1" if ln == "1 4 4 1" else ln for ln in lines) + "\n")
    assert main(["verify", str(path), "--from-tensor", str(out)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == {
        "degree_retrieval": True,
        "total_sum": True,
        "edge_distribution": True,
        "reconstruction": False,
    }
    assert report["passed"] is False


def test_verify_from_tensor_checks_the_values(tmp_path, capsys):
    """Values moved between the entries of a 4-cycle keep every row sum, the
    total and the levels, and every key: only the shares tell."""
    path = tmp_path / "cycle.json"
    edges = [{"a": 1, "b": 1}, {"c": 1, "d": 1}, {"a": 1, "c": 1}, {"b": 1, "d": 1}]
    path.write_text(dumps({"vertices": list("abcd"), "edges": [{"mult": e} for e in edges]}))
    out = tmp_path / "t.coo"
    assert main(["tensor", str(path), "--approach", "str", "--out", str(out)]) == 0
    moved = {"1 2 1": "1 2 3/2", "3 4 1": "3 4 3/2", "1 3 1": "1 3 1/2", "2 4 1": "2 4 1/2"}
    lines = out.read_text(encoding="utf-8").splitlines()
    assert moved.keys() <= set(lines)
    out.write_text("\n".join(moved.get(ln, ln) for ln in lines) + "\n")
    assert main(["verify", str(path), "--from-tensor", str(out)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == {
        "degree_retrieval": True,
        "total_sum": True,
        "edge_distribution": True,
        "reconstruction": False,
    }
    assert report["passed"] is False


def test_verify_from_tensor_of_another_dimension_exits_3(tmp_path, capsys):
    """A tensor whose dimension, less the trace's null vertices, is not the
    graph's vertex count is refused before any work sized by the dimension."""
    path = graph_file(tmp_path, "pair.json", {"a": 1, "b": 1})
    out = tmp_path / "t.coo"
    assert main(["tensor", path, "--approach", "str", "--out", str(out)]) == 0
    header, *records = out.read_text(encoding="utf-8").splitlines()
    assert header == "# order=2 dim=3 entries=1"
    for dim in (2, 4, 3 * 10**6 + 3):
        out.write_text("\n".join([f"# order=2 dim={dim} entries=1", *records]) + "\n")
        assert main(["verify", path, "--from-tensor", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tensor dim {dim} - 1 null vertices != 2 graph vertices\n"


def test_verify_argument_errors(demo_file, capsys):
    # the tensor is read before its trace, <tensor>.trace.json; here the
    # tensor itself is a JSON file, which does not read as COO
    assert main(["verify", demo_file, "--from-tensor", demo_file]) == 2
    assert "missing '# order=.. dim=.. entries=..' header" in capsys.readouterr().err
    for args in ([], ["--approach", "xyz"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", demo_file, *args])
        assert exc.value.code == 2
    assert "unknown approach 'xyz'" in capsys.readouterr().err


def test_verify_takes_exactly_one_source(demo_file, tmp_path, capsys):
    out = tmp_path / "t.coo"
    assert main(["tensor", demo_file, "--approach", "sil", "--out", str(out)]) == 0
    for args, message in (
        ([], "one of the arguments --approach --from-tensor is required"),
        (["--approach", "lay", "--from-tensor", str(out)],
         "argument --from-tensor: not allowed with argument --approach"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["verify", demo_file, *args])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["verify", "--approach", "sil", "--trace", "missing.trace.json"],
    ["export", "--format", "csv", "--approach", "lay"],
    ["export", "--format", "csv", "--full"],
    ["export", "--format", "json", "--approach", "sil"],
    ["export", "--format", "csv", "--approach", "lay", "--full"],
    ["export", "--format", "coo", "--full"],
])
def test_a_removed_option_exits_2(demo_file, capsys, args):
    # the trace is always <tensor>.trace.json, and ``tensor`` writes every COO
    with pytest.raises(SystemExit) as exc:
        main([args[0], demo_file, *args[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err or "invalid choice: 'coo'" in captured.err


WRITING_VERBS = {
    "info": ["info"],
    "dual": ["dual"],
    "uniformize": ["uniformize", "--approach", "sil"],
    "tensor": ["tensor", "--approach", "sil"],
    "paths": ["paths"],
    "export": ["export", "--format", "csv"],
}


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize("verb", WRITING_VERBS)
def test_unwritable_out_exits_2(demo_file, tmp_path, capsys, verb, target):
    out = tmp_path / "no" / "x" if target == "missing_dir" else tmp_path
    args = WRITING_VERBS[verb]
    assert main([args[0], demo_file, *args[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err
    assert str(out) in err


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Every ``hbtensor`` line of the README's command block, in order, on the demo graph."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [words for words in lines if words]
    assert lines and all(words[0] == "hbtensor" for words in lines)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.json").write_text(dumps(DEMO_OBJ), encoding="utf-8")
    for words in lines:
        assert main(words[1:]) == 0, " ".join(words)
        capsys.readouterr()


def test_readme_command_line_names_every_option_and_no_other():
    """The README's command-line section and ``build_parser`` cannot drift:
    each ``--option`` the section names is declared, and each declared one named."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        option
        for parser in verbs.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert named - declared == set(), "named in the README, not declared"
    assert declared - named == set(), "declared, not named in the README"



def _subparsers(parser) -> dict:
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return verbs.choices


def test_a_named_verb_builds_only_its_own_subparser():
    every = list(_subparsers(build_parser()))
    assert every == ["info", "dual", "uniformize", "tensor", "verify", "paths", "export"]
    for verb in every:
        choices = _subparsers(build_parser(verb))
        # every verb is still a choice, for the usage line
        assert list(choices) == every
        assert [name for name, parser in choices.items() if parser] == [verb]
    for word in ("-h", "badverb", "--", "-x"):
        assert all(_subparsers(build_parser(word)).values()), word


@pytest.mark.parametrize("args", [
    ["-h"],
    ["verify", "-h"],
    ["badverb", "x"],
    ["info"],
    ["verify", "x.json", "--approach", "zzz"],
    ["info", "x.json", "--bogus"],
    ["-x", "info", "x.json"],
    [],
], ids=lambda args: " ".join(args) or "no arguments")
def test_the_verb_parser_prints_what_the_full_parser_prints(args, monkeypatch, capsys):
    """``main`` builds only the named verb's subparser; help, usage errors and
    exit codes read as the full parser's."""

    def run():
        with pytest.raises(SystemExit) as exc:
            main(list(args))
        return exc.value.code, *capsys.readouterr()

    ours = run()
    monkeypatch.setattr(hbtensor.cli, "build_parser", lambda *verb: build_parser())
    assert ours == run()
    assert ours[0] == (0 if "-h" in args else 2)

def test_approach_full_name_and_prefix_agree(demo_file, tmp_path):
    for name in ("straightforward", "silo", "layered"):
        outputs = []
        for value in (name, name[:3]):
            out = tmp_path / f"{value}.coo"
            assert main(["tensor", demo_file, "--approach", value, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_out_writes_the_printed_bytes(demo_file, tmp_path, capsys):
    for verb in (
        ["info"],
        ["dual"],
        ["paths"],
        ["export", "--format", "csv"],
        ["export", "--format", "json"],
    ):
        assert main([verb[0], demo_file, *verb[1:]]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main([verb[0], demo_file, *verb[1:], "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode("utf-8")


def test_missing_input_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["info", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}")


def test_non_positive_weight_exits_2(tmp_path, capsys):
    for weight in (0, -1):
        path = tmp_path / "g.json"
        path.write_text(dumps({"vertices": ["a"], "edges": [{"mult": {"a": 1}, "weight": weight}]}))
        assert main(["info", str(path)]) == 2
        assert capsys.readouterr().err.endswith("weights must be positive\n")


def test_paths_cli(demo_file, capsys):
    assert main(["paths", demo_file, "--pair", "v1", "v2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["distance"]["value"] == 3
    assert main(["paths", demo_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["components"][0] == ["v1", "v2", "v3", "v4", "v5"]
    assert report["diameter"] == "inf"


def test_paths_unknown_vertex_exits_3_naming_it(demo_file, capsys):
    assert main(["paths", demo_file, "--pair", "v1", "nope"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: unknown vertex 'nope'\n")


def test_export(demo_file, tmp_path, capsys):
    assert main(["export", demo_file, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("vertex,e1,e2,e3,e4")
    assert main(["export", demo_file, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"][0] == "v1"


def test_tensor_full(demo_file, tmp_path, capsys):
    out = tmp_path / "t.coo"
    assert main(["tensor", demo_file, "--approach", "str", "--full", "--out", str(out)]) == 0
    assert "entries=85" in out.read_text(encoding="utf-8").splitlines()[0]
    assert (tmp_path / "t.coo.trace.json").exists()
    # one edge of 11 distinct vertices: 11! records, over the 10**7 limit;
    # the refusal comes before either file is opened
    wide = tmp_path / "wide.json"
    names = list("abcdefghijk")
    wide.write_text(dumps({"vertices": names, "edges": [{"mult": dict.fromkeys(names, 1)}]}))
    refused = tmp_path / "wide.coo"
    args = ["tensor", str(wide), "--approach", "str", "--full", "--out", str(refused)]
    assert main(args) == 3
    assert "full export would emit 39916800 records" in capsys.readouterr().err
    assert not refused.exists() and not (tmp_path / "wide.coo.trace.json").exists()


def test_export_full_at_large_order(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(dumps({"vertices": ["a"], "edges": [{"mult": {"a": 3000}}]}))
    out = tmp_path / "t.coo"
    assert main(["tensor", str(path), "--approach", "sil", "--full", "--out", str(out)]) == 0
    header, record = out.read_text(encoding="utf-8").splitlines()
    assert header == "# order=3000 dim=3000 entries=1"
    assert record == " ".join(["1"] * 3000) + " 3000"


SRC = str(Path(hbtensor.__file__).parents[1])

# (exit code, argv) of each case the process entry must run as ``main`` does;
# the files are those ``_parity_inputs`` writes
PARITY_CASES = {
    "info": (0, ["info", "demo.json"]),
    "tensor": (0, ["tensor", "demo.json", "--approach", "sil", "--out", "t.coo"]),
    "verify": (0, ["verify", "demo.json", "--approach", "lay", "--seed", "7"]),
    "tampered tensor": (1, ["verify", "demo.json", "--from-tensor", "tampered.coo"]),
    "unreadable json": (2, ["info", "deep.json"]),
    "usage error": (2, ["verify", "demo.json", "--approach", "zzz"]),
    "help": (0, ["-h"]),
    "not natural": (3, ["tensor", "half.json", "--approach", "sil", "--out", "h.coo"]),
}


def _parity_inputs(root: Path) -> None:
    (root / "demo.json").write_text(dumps(DEMO_OBJ), encoding="utf-8")
    (root / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    half = {"vertices": ["a", "b"], "edges": [{"mult": {"a": "1/2"}}, {"mult": {"b": 1}}]}
    (root / "half.json").write_text(dumps(half), encoding="utf-8")
    tampered = root / "tampered.coo"
    assert main(["tensor", str(root / "demo.json"), "--approach", "sil", "--out", str(tampered)]) == 0
    lines = tampered.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].rsplit(" ", 1)[0] + " 9/2"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _files(root: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


@pytest.mark.parametrize("stream", ["file", "pipe"])
@pytest.mark.parametrize("case", PARITY_CASES)
def test_the_process_entry_runs_as_main(case, stream, tmp_path, monkeypatch, capsys):
    """``python -m hbtensor.cli`` (``run``: GC off, flush, ``os._exit``) prints,
    exits and writes what an in-process ``main`` does, to a file or a pipe."""
    code, argv = PARITY_CASES[case]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal
    inner, child = tmp_path / "main", tmp_path / "run"
    for root in (inner, child):
        root.mkdir()
        _parity_inputs(root)
    capsys.readouterr()
    monkeypatch.chdir(inner)
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    assert got == code and gc.isenabled()
    expected = (code, *capsys.readouterr(), _files(inner))

    command = [sys.executable, "-m", "hbtensor.cli", *argv]
    # buffered streams, as an installed script has them: the flush in ``run`` holds the output
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": ""}
    if stream == "pipe":
        run = subprocess.run(command, capture_output=True, cwd=child, env=env)
        out, err = run.stdout, run.stderr
    else:
        with open(tmp_path / "out", "wb") as out_file, open(tmp_path / "err", "wb") as err_file:
            run = subprocess.run(command, stdout=out_file, stderr=err_file, cwd=child, env=env)
        out, err = (tmp_path / "out").read_bytes(), (tmp_path / "err").read_bytes()
    assert (run.returncode, out.decode(), err.decode(), _files(child)) == expected


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_the_process_entry_on_a_closed_pipe_exits_as_the_interpreter_does(
    demo_file, unbuffered
):
    """A write or flush to a pipe nobody reads fails: ``main`` reports a write
    error (exit 2); a flush in ``run`` falls back to the interpreter's exit,
    which reports the failed flush of standard output (exit 120)."""
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered}
    interpreter_exit = "import sys; from hbtensor.cli import main; raise SystemExit(main())"
    outcomes = []
    for entry in (["-m", "hbtensor.cli"], ["-c", interpreter_exit]):
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run(
                [sys.executable, *entry, "info", demo_file],
                stdout=write, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write)
        outcomes.append((run.returncode, run.stderr))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (2 if unbuffered else 120)


def _disjoint_copies(copies: int, n: int = 40, p: int = 40) -> dict:
    """A seeded natural hb-graph of ``p`` distinct edges, ``copies`` times over
    disjoint vertex sets."""
    rng = random.Random(5)
    vertices = [f"v{i + 1}" for i in range(n)]
    edges, seen = [], set()
    while len(edges) < p:
        edge = random_edge(rng, vertices, 4)
        if (key := frozenset(edge.items())) not in seen:
            seen.add(key)
            edges.append(edge)
    return {
        "vertices": [f"{v}.{k}" for k in range(copies) for v in vertices],
        "edges": [
            {"mult": {f"{v}.{k}": m for v, m in edge.items()}}
            for k in range(copies) for edge in edges
        ],
    }


@pytest.mark.parametrize("args", [
    ["verify", "--approach", "sil"],
    ["tensor", "--approach", "lay", "--out", "t.coo"],
], ids=lambda args: " ".join(args[:3]))
def test_a_run_leaves_no_more_cycles_on_a_larger_input(args, tmp_path, monkeypatch, capsys):
    """The process entry turns the cyclic GC off: what a run leaves for it
    (about a hundred objects today) must not grow with the input."""
    monkeypatch.chdir(tmp_path)
    was_enabled = gc.isenabled()
    collected = []
    try:
        for copies in (1, 4):
            path = tmp_path / f"g{copies}.json"
            path.write_text(dumps(_disjoint_copies(copies)), encoding="utf-8")
            gc.collect()
            gc.disable()
            assert main([args[0], str(path), *args[1:]]) == 0
            collected.append(gc.collect())
            capsys.readouterr()
    finally:
        if was_enabled:
            gc.enable()
    assert collected[1] <= collected[0], collected
