"""File formats: hb-graph JSON, sparse tensor COO text / JSON, trace JSON,
incidence CSV.

All rationals are exact: integers are emitted as JSON numbers, non-integral
values as "p/q" strings.  Output is byte-stable for a fixed input (vertex
order, edge order and canonical tuple order are all deterministic).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import ParseError
from .hbgraph import HbGraph, IncidenceMatrix
from .mset import Multiset, Rational
from .tensor import DEFAULT_MAX_FULL_RECORDS, SymTensor
from .transform import APPROACHES, UniformisationTrace


def rational_to_json(x: Rational):
    if type(x) is int:  # exactly int: bools still go through Fraction
        return x
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_rational(x: Rational) -> str:
    return str(rational_to_json(x))


def json_to_rational(obj, where: str) -> Rational:
    if isinstance(obj, bool):
        raise ParseError(f"{where}: expected a number, got a boolean")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, Fraction):  # produced by parse_float below
        return int(obj) if obj.denominator == 1 else obj
    if isinstance(obj, str):
        try:
            frac = Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational literal {obj!r}") from exc
        return int(frac) if frac.denominator == 1 else frac
    raise ParseError(f"{where}: expected a number or 'p/q' string, got {type(obj).__name__}")


def _loads(text: str, source: str) -> Any:
    try:
        return json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _read(path) -> tuple[str, str]:
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8"), str(p)
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc


# -- multiset ----------------------------------------------------------------


def mset_to_obj(a: Multiset) -> dict:
    return {
        "universe": list(a.universe),
        "mult": {x: rational_to_json(v) for x, v in a.mult.items()},
    }


def mset_from_obj(obj, source: str = "multiset") -> Multiset:
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: expected an object")
    universe = obj.get("universe")
    if not isinstance(universe, list) or not all(isinstance(x, str) for x in universe):
        raise ParseError(f"{source}: 'universe' must be a list of strings")
    raw = obj.get("mult", {})
    if not isinstance(raw, dict):
        raise ParseError(f"{source}: 'mult' must be an object")
    mult = {
        x: json_to_rational(v, f"{source}: mult[{x!r}]") for x, v in raw.items()
    }
    try:
        return Multiset(universe, mult)
    except Exception as exc:
        raise ParseError(f"{source}: {exc}") from exc


# -- hb-graph ----------------------------------------------------------------


def hbgraph_to_obj(h: HbGraph) -> dict:
    edges = []
    for i, e in enumerate(h.edges):
        record: dict = {"mult": {x: rational_to_json(v) for x, v in e.mult.items()}}
        if h.weights is not None:
            record["weight"] = rational_to_json(h.weights[i])
        edges.append(record)
    return {"vertices": list(h.vertices), "edges": edges}


def hbgraph_from_obj(obj, source: str = "hb-graph") -> HbGraph:
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: expected an object")
    vertices = obj.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError(f"{source}: 'vertices' must be a list of strings")
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError(f"{source}: 'edges' must be a list")
    mults = []
    weights = []
    any_weight = False
    for k, record in enumerate(raw_edges):
        where = f"{source}: edges[{k}]"
        if not isinstance(record, dict) or "mult" not in record:
            raise ParseError(f"{where}: expected an object with a 'mult' field")
        raw_mult = record["mult"]
        if not isinstance(raw_mult, dict):
            raise ParseError(f"{where}: 'mult' must be an object")
        mults.append(
            {x: json_to_rational(v, f"{where}: mult[{x!r}]") for x, v in raw_mult.items()}
        )
        if "weight" in record:
            any_weight = True
            weights.append(json_to_rational(record["weight"], f"{where}: weight"))
        else:
            weights.append(1)
    try:
        return HbGraph.from_dicts(vertices, mults, weights if any_weight else None)
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"{source}: {exc}") from exc


def load_hbgraph(path) -> HbGraph:
    text, source = _read(path)
    return hbgraph_from_obj(_loads(text, source), source)


def dump_hbgraph(h: HbGraph, path) -> None:
    Path(path).write_text(dumps(hbgraph_to_obj(h)), encoding="utf-8")


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# -- incidence CSV -----------------------------------------------------------


def incidence_csv(matrix: IncidenceMatrix) -> str:
    header = "vertex," + ",".join(f"e{j + 1}" for j in range(matrix.p))
    lines = [header]
    for v, row in zip(matrix.vertices, matrix.entries):
        lines.append(v + "," + ",".join(format_rational(x) for x in row))
    return "\n".join(lines) + "\n"


# -- tensor ------------------------------------------------------------------


def tensor_to_coo(
    t: SymTensor, mode: str = "canonical", max_records: int = DEFAULT_MAX_FULL_RECORDS
) -> str:
    records = t.export_coo(mode, max_records)
    lines = [f"# order={t.order} dim={t.dim} entries={len(records)}"]
    for key, value in records:
        lines.append(" ".join(str(i) for i in key) + " " + format_rational(value))
    return "\n".join(lines) + "\n"


def dump_tensor_coo(
    t: SymTensor, path, mode: str = "canonical", max_records: int = DEFAULT_MAX_FULL_RECORDS
) -> None:
    Path(path).write_text(tensor_to_coo(t, mode, max_records), encoding="utf-8")


def tensor_from_coo(text: str, source: str = "tensor") -> SymTensor:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ParseError(f"{source}: missing '# order=.. dim=.. entries=..' header")
    header: dict[str, int] = {}
    for token in lines[0].lstrip("#").split():
        if "=" not in token:
            raise ParseError(f"{source}: bad header token {token!r}")
        name, _, raw = token.partition("=")
        try:
            header[name] = int(raw)
        except ValueError as exc:
            raise ParseError(f"{source}: bad header value {token!r}") from exc
    for required in ("order", "dim", "entries"):
        if required not in header:
            raise ParseError(f"{source}: header lacks {required}=")
    order, dim = header["order"], header["dim"]
    if len(lines) - 1 != header["entries"]:
        raise ParseError(
            f"{source}: header announces {header['entries']} records, found {len(lines) - 1}"
        )
    entries: dict[tuple[int, ...], Fraction] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != order + 1:
            raise ParseError(f"{source}: line {lineno}: expected {order} indices and a value")
        try:
            idx = tuple(sorted(int(tok) for tok in tokens[:-1]))
            value = Fraction(tokens[-1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{source}: line {lineno}: {exc}") from exc
        if idx in entries and entries[idx] != value:
            raise ParseError(f"{source}: line {lineno}: conflicting values for {idx}")
        entries[idx] = value
    try:
        return SymTensor(order=order, dim=dim, entries=entries)
    except Exception as exc:
        raise ParseError(f"{source}: {exc}") from exc


def load_tensor_coo(path) -> SymTensor:
    text, source = _read(path)
    return tensor_from_coo(text, source)


def tensor_to_obj(t: SymTensor) -> dict:
    return {
        "order": t.order,
        "dim": t.dim,
        "entries": [
            {"idx": list(key), "val": rational_to_json(value)}
            for key, value in t.canonical_items()
        ],
    }


def tensor_from_obj(obj, source: str = "tensor") -> SymTensor:
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: expected an object")
    for field in ("order", "dim", "entries"):
        if field not in obj:
            raise ParseError(f"{source}: missing '{field}'")
    if not isinstance(obj["entries"], list):
        raise ParseError(f"{source}: 'entries' must be a list")
    entries: dict[tuple[int, ...], Fraction] = {}
    for k, record in enumerate(obj["entries"]):
        where = f"{source}: entries[{k}]"
        if not isinstance(record, dict) or "idx" not in record or "val" not in record:
            raise ParseError(f"{where}: expected an object with 'idx' and 'val'")
        idx = record["idx"]
        if not isinstance(idx, list) or not all(isinstance(i, int) for i in idx):
            raise ParseError(f"{where}: 'idx' must be a list of integers")
        entries[tuple(sorted(idx))] = Fraction(json_to_rational(record["val"], where))
    try:
        return SymTensor(order=int(obj["order"]), dim=int(obj["dim"]), entries=entries)
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"{source}: {exc}") from exc


# -- trace -------------------------------------------------------------------


def trace_to_obj(trace: UniformisationTrace) -> dict:
    return {
        "approach": trace.approach,
        "r_h": trace.r_h,
        "n_a": trace.n_a,
        "null_vertices": dict(trace.null_vertices),
        "layer_coeffs": {
            str(r): rational_to_json(c) for r, c in sorted(trace.layer_coeffs.items())
        },
        "edge_provenance": [i + 1 for i in trace.edge_provenance],
    }


def trace_from_obj(obj, source: str = "trace") -> UniformisationTrace:
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: expected an object")
    approach = obj.get("approach")
    if approach not in APPROACHES:
        raise ParseError(f"{source}: unknown approach {approach!r}")
    try:
        r_h = int(obj["r_h"])
        n_a = int(obj["n_a"])
        null_vertices = {str(k): int(v) for k, v in obj["null_vertices"].items()}
        layer_coeffs = {
            int(r): Fraction(json_to_rational(c, f"{source}: layer_coeffs[{r}]"))
            for r, c in obj["layer_coeffs"].items()
        }
        provenance = tuple(int(i) - 1 for i in obj["edge_provenance"])
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"{source}: malformed trace: {exc}") from exc
    return UniformisationTrace(
        approach=approach,
        r_h=r_h,
        null_vertices=null_vertices,
        n_a=n_a,
        layer_coeffs=layer_coeffs,
        edge_provenance=provenance,
    )


def load_trace(path) -> UniformisationTrace:
    text, source = _read(path)
    return trace_from_obj(_loads(text, source), source)


def dump_trace(trace: UniformisationTrace, path) -> None:
    Path(path).write_text(dumps(trace_to_obj(trace)), encoding="utf-8")
