"""Graph file formats: hb-graph JSON and incidence CSV (written row by row
from the vertex hb-stars; no dense matrix), and the number rule and JSON
reading that every file format shares.

All rationals are exact: integers are emitted as JSON numbers, non-integral
values as "p/q" strings.  Output is byte-stable for a fixed input (vertex
order, edge order and canonical tuple order are all deterministic).  Every
reader reads numbers by one rule and raises ``ParseError`` for any input it
cannot read, a violated precondition of the core (``DomainError``) included.
A file of integers builds no ``Fraction``: a JSON decimal or a "p/q" string
is the first value that imports ``fractions`` (``hbgraph._fraction``).

The tensor file, COO text and trace JSON, lives in ``tensorfile``, which
only ``tensor`` and ``verify --from-tensor`` load.  Two of its names, the
ones ``perfbench/layers.py`` reads, resolve here as well, on first use (PEP
562): ``io.tensor_to_coo`` and ``io.trace_to_obj``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

from .errors import DomainError, ParseError
from .hbgraph import HbGraph, Rational, _fraction, as_rational

# the most decimal digits ``str`` prints of an int by default; 10**4300 has one more
_MAX_DIGITS = 4300
_TOO_LONG = 10**_MAX_DIGITS
_CANNOT_PRINT = f"cannot print a number of more than {_MAX_DIGITS} digits"
# the most characters of a bad literal that an error message repeats
_EXCERPT = 40
# the characters of a "p/q" or decimal string: no '_', whitespace or non-ASCII
# digit, all of which ``Fraction`` would also take
_LITERAL = re.compile(r"[0-9+\-./eE]+")
# the names of ``tensorfile`` that resolve here (``__getattr__``)
_TENSORFILE = frozenset(("tensor_to_coo", "trace_to_obj"))


def __getattr__(name: str):
    # only a name not yet bound gets here, as at the package root
    if name not in _TENSORFILE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tensorfile

    value = globals()[name] = getattr(tensorfile, name)
    return value


def _too_long(x: Rational) -> bool:
    return abs(x.numerator) >= _TOO_LONG or x.denominator >= _TOO_LONG


def rational_to_json(x: Rational):
    """The one printer: an int as a JSON number, a non-integral value as a
    "p/q" string.  A numerator or denominator of more than ``_MAX_DIGITS``
    digits cannot be printed and raises ``DomainError``."""
    if type(x) is int and -_TOO_LONG < x < _TOO_LONG:
        return x
    x = as_rational(int(x) if isinstance(x, bool) else x)
    if _too_long(x):
        raise DomainError(_CANNOT_PRINT)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_rational(x: Rational) -> str:
    return str(rational_to_json(x))


def json_to_rational(obj, where: str) -> Rational:
    """The one number rule: a JSON number or "p/q" string as ``as_rational``
    reads it, a string holding only the characters of ``_LITERAL``.  Bools,
    lists, objects, null and NaN/Infinity are rejected, and so is a numerator
    or denominator of more than ``_MAX_DIGITS`` digits, which could not be
    printed (an int literal that long already fails ``_loads``)."""
    if type(obj) is int:  # fast path: every multiplicity of every load
        return obj
    # a str, or the Fraction of a JSON decimal (``_loads``), told by its denominator
    if isinstance(obj, str) or (not isinstance(obj, int) and hasattr(obj, "denominator")):
        try:
            if isinstance(obj, str) and not _LITERAL.fullmatch(obj):
                raise ValueError(obj)
            value = as_rational(obj)
        except (ValueError, ZeroDivisionError) as exc:  # only a str gets here
            shown = repr(obj[:_EXCERPT])
            if len(obj) > _EXCERPT:
                shown += f"... ({len(obj)} characters)"
            raise ParseError(f"{where}: bad rational literal {shown}") from exc
        if _too_long(value):
            raise ParseError(f"{where}: number has more than {_MAX_DIGITS} digits")
        return value
    raise ParseError(f"{where}: expected a number or 'p/q' string, got {type(obj).__name__}")


def _unique(pairs: list) -> dict:
    """A JSON object's (name, value) pairs as a dict, refusing a repeated
    name, which ``json`` alone would read last-wins."""
    obj = {}
    for name, value in pairs:
        if name in obj:
            raise ValueError(f"repeated name {name[:_EXCERPT]!r}")
        obj[name] = value
    return obj


def _loads(text: str, source: str) -> Any:
    try:
        # a decimal as its exact Fraction, whose class the first one imports
        return json.loads(text, parse_float=_fraction, object_pairs_hook=_unique)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # deep nesting, over-long int, repeated name
        raise ParseError(f"{source}: {exc}") from exc


def _json(obj, kind: type, where: str, *names: str):
    """``obj`` as a JSON ``kind`` (dict or list) that has every field in ``names``."""
    if not isinstance(obj, kind):
        raise ParseError(f"{where}: expected {'an object' if kind is dict else 'a list'}")
    for name in names:
        if name not in obj:
            raise ParseError(f"{where}: missing '{name}'")
    return obj


def _mult(raw, where: str) -> dict[str, Rational]:
    """The one mult parser: a JSON object of element -> multiplicity."""
    raw = _json(raw, dict, f"{where}: mult")
    return {x: json_to_rational(v, f"{where}: mult[{x!r}]") for x, v in raw.items()}


def _read(path) -> tuple[str, str]:
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8"), str(p)
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc


# -- hb-graph ----------------------------------------------------------------


def hbgraph_to_obj(h: HbGraph) -> dict:
    vs, edges = h.vertices, []
    for i, key in enumerate(h._keys):
        record = {"mult": {vs[k - 1]: rational_to_json(m) for k, m, _ in key}}
        if h.weights is not None:
            record["weight"] = rational_to_json(h.weights[i])
        edges.append(record)
    return {"vertices": list(vs), "edges": edges}


def hbgraph_from_obj(obj, source: str = "hb-graph") -> HbGraph:
    vertices = _json(obj, dict, source).get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError(f"{source}: 'vertices' must be a list of strings")
    mults, weights, weighted = [], [], False
    for k, record in enumerate(_json(obj.get("edges", []), list, f"{source}: edges")):
        where = f"{source}: edges[{k}]"
        mults.append(_mult(_json(record, dict, where, "mult")["mult"], where))
        weights.append(json_to_rational(record.get("weight", 1), f"{where}: weight"))
        weighted = weighted or "weight" in record
    try:
        return HbGraph(vertices, mults, weights if weighted else None)
    except DomainError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def load_hbgraph(path) -> HbGraph:
    text, source = _read(path)
    return hbgraph_from_obj(_loads(text, source), source)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# -- incidence CSV -----------------------------------------------------------


def _csv_cell(text: str) -> str:
    """``text`` as a CSV cell, quoted (RFC 4180) only if it holds , " CR or LF."""
    quote = "," in text or '"' in text or "\r" in text or "\n" in text
    return '"' + text.replace('"', '""') + '"' if quote else text


def incidence_csv(h: HbGraph) -> str:
    """The n x p incidence matrix, one row per vertex written from its hb-star."""
    p = h.p
    lines = ["vertex," + ",".join(f"e{j + 1}" for j in range(p))]
    for v in h.vertices:
        cells = ["0"] * p
        for j, m in h._star(v):
            cells[j] = format_rational(m)
        lines.append(_csv_cell(str(v)) + "," + ",".join(cells))
    return "\n".join(lines) + "\n"
