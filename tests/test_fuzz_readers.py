"""Hostile input files through the CLI: every run of ``info`` and of
``verify --from-tensor`` must end in a clean exit code (0 passed, 1 failed
check, 2 unreadable file, 3 violated precondition), never 4 (internal error).

The demo hb-graph, its COO tensor and its trace are mutated by truncation,
type swaps, bools, fractions in integer fields, repeated and conflicting
records and nesting.  Generated numbers stay small: a huge multiplicity or
``dim`` is a size policy of its own, not a reader rule.
"""

from __future__ import annotations

import contextlib
import copy
import io as stdio
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import DEMO_EDGES, DEMO_VERTICES
from hbtensor import HbGraph, e_adjacency_tensor
from hbtensor.cli import main
from hbtensor.io import dumps, hbgraph_to_obj, tensor_to_coo, trace_to_obj

CLEAN_EXITS = {0, 1, 2, 3}

hostile_values = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-3, 12),
    st.sampled_from([2.5, 0.5, 3.0, -1.5, float("nan"), float("inf")]),
    st.sampled_from(["1/2", "3", "x", "1/0", "", "2.0", "nan", "-1", "v1", "silo"]),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from(["v1", "a", "idx"]), st.integers(0, 3), max_size=2),
)
hostile_tokens = st.sampled_from(
    ["0", "-1", "2.5", "true", "x", "1/0", "99", "1/2", "nan", "3", "1e3", "=", ""]
)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            yield from _paths(v, prefix + (k,))


@st.composite
def mutated_json(draw, obj) -> str:
    """One to three tree edits of ``obj``, then maybe a text-level edit."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = draw(hostile_values)
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["replace", "delete", "repeat", "nest"]))
        if op == "delete":
            del parent[key]
        elif op == "repeat" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif op == "nest":
            parent[key] = _nest(parent[key], draw)
        else:
            parent[key] = draw(hostile_values)
    return _text_edit(json.dumps(obj, indent=1), draw)


def _nest(value, draw):
    for _ in range(draw(st.integers(1, 4))):
        value = [value]
    return value


def _text_edit(text: str, draw) -> str:
    op = draw(st.sampled_from(["none", "none", "truncate", "deep"]))
    if op == "truncate":
        return text[: draw(st.integers(0, max(len(text) - 1, 0)))]
    if op == "deep":
        depth = draw(st.sampled_from([10, 3000]))
        return "[" * depth + text + "]" * depth
    return text


@st.composite
def mutated_coo(draw, text: str) -> str:
    """Token swaps, repeated, conflicting and dropped records, or truncation."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1)) if lines else 0
        op = draw(st.sampled_from(["token", "repeat", "conflict", "drop", "truncate"]))
        if not lines or op == "truncate":
            return text[: draw(st.integers(0, len(text)))]
        tokens = lines[k].split()
        if op == "token" and tokens:
            j = draw(st.integers(0, len(tokens) - 1))
            name, eq, _ = tokens[j].partition("=")
            tokens[j] = (name + eq if k == 0 and eq else "") + draw(hostile_tokens)
            lines[k] = " ".join(tokens)
        elif op == "repeat" and k:
            lines.insert(k, " ".join(reversed(tokens[:-1])) + " " + tokens[-1])
        elif op == "conflict" and k:
            lines.insert(k, " ".join(tokens[:-1]) + " " + draw(hostile_tokens))
        elif op == "drop":
            del lines[k]
        text = "\n".join(lines) + "\n"
    if draw(st.booleans()):  # a header that agrees, so the records are read
        text = re.sub(r"entries=\S*", f"entries={len(lines) - 1}", text, count=1)
    return text


def _run(argv: list[str]) -> tuple[int, str]:
    err = stdio.StringIO()
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def demo_files(draw):
    """(graph JSON, COO tensor, trace JSON) of the demo, one of them mutated."""
    h = HbGraph.from_dicts(DEMO_VERTICES, DEMO_EDGES)
    approach = draw(st.sampled_from(["straightforward", "silo", "layered"]))
    tensor, trace = e_adjacency_tensor(h, approach)
    files = [dumps(hbgraph_to_obj(h)), tensor_to_coo(tensor), dumps(trace_to_obj(trace))]
    target = draw(st.integers(0, 2))
    if target == 1:
        files[1] = draw(mutated_coo(files[1]))
    else:
        files[target] = draw(mutated_json(json.loads(files[target])))
    return files


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(demo_files())
def test_hostile_files_get_a_clean_exit(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("g.json", "t.coo", "t.trace.json")]
        graph, coo, trace = paths
        for path, text in zip(paths, files):
            path.write_text(text, encoding="utf-8")
        for argv in (
            ["info", str(graph)],
            ["verify", str(graph), "--from-tensor", str(coo), "--trace", str(trace)],
        ):
            code, err = _run(argv)
            assert code in CLEAN_EXITS, (argv[0], err, files)
