"""File formats: hb-graph JSON, sparse tensor COO text, trace JSON,
incidence CSV (written row by row from the vertex hb-stars; no dense matrix).

All rationals are exact: integers are emitted as JSON numbers, non-integral
values as "p/q" strings.  Output is byte-stable for a fixed input (vertex
order, edge order and canonical tuple order are all deterministic).  Every
reader reads numbers by one rule and raises ``ParseError`` for any input it
cannot read, a violated precondition of the core (``DomainError``) included.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import DomainError, ParseError
from .hbgraph import HbGraph
from .mset import Rational, as_rational

if TYPE_CHECKING:  # imported where used, so reading a graph loads neither
    from .tensor import SymTensor
    from .transform import UniformisationTrace

# the most decimal digits ``str`` prints of an int by default; 10**4300 has one more
_MAX_DIGITS = 4300
_TOO_LONG = 10**_MAX_DIGITS
_CANNOT_PRINT = f"cannot print a number of more than {_MAX_DIGITS} digits"
# the most characters of a bad literal that an error message repeats
_EXCERPT = 40
# the characters of a "p/q" or decimal string: no '_', whitespace or non-ASCII
# digit, all of which ``Fraction`` would also take
_LITERAL = re.compile(r"[0-9+\-./eE]+")
_HEADER_KEYS = ("order", "dim", "entries")


def _too_long(x: Rational) -> bool:
    return abs(x.numerator) >= _TOO_LONG or x.denominator >= _TOO_LONG


def rational_to_json(x: Rational):
    """The one printer: an int as a JSON number, a non-integral value as a
    "p/q" string.  A numerator or denominator of more than ``_MAX_DIGITS``
    digits cannot be printed and raises ``DomainError``."""
    if type(x) is int and -_TOO_LONG < x < _TOO_LONG:  # bools go through Fraction
        return x
    x = Fraction(x)
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
    if isinstance(obj, (Fraction, str)):  # Fraction: parse_float below
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


def _integer(obj, where: str) -> int:
    """An integer field: 3, 3.0 and "3" read as 3; 2.5 and true are rejected."""
    value = json_to_rational(obj, where)
    if type(value) is not int:
        raise ParseError(f"{where}: expected an integer")
    return value


def _loads(text: str, source: str) -> Any:
    try:
        return json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # deep nesting, over-long int literal
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
    edges = []
    for i, e in enumerate(h.edges):
        record: dict = {"mult": {x: rational_to_json(v) for x, v in e.mult.items()}}
        if h.weights is not None:
            record["weight"] = rational_to_json(h.weights[i])
        edges.append(record)
    return {"vertices": list(h.vertices), "edges": edges}


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
        return HbGraph.from_dicts(vertices, mults, weights if weighted else None)
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


# -- tensor ------------------------------------------------------------------


def tensor_to_coo(t: SymTensor, full: bool = False) -> str:
    """COO text of ``t``, one record per canonical entry, or per distinct
    permutation when ``full``.  A value whose denominator the printer would
    refuse is refused before any value is built, where the log-gammas tell."""
    from .tensor import _denominators_too_long

    if _denominators_too_long(t, _MAX_DIGITS):
        raise DomainError(_CANNOT_PRINT)
    records = t.full_items() if full else t.canonical_items()
    lines = [f"# order={t.order} dim={t.dim} entries={len(records)}"]
    for key, value in records:
        lines.append(" ".join([str(i) for i in key]) + " " + format_rational(value))
    return "\n".join(lines) + "\n"


def _natural(raw: str, where: str) -> int:
    """A COO index or header value: ASCII decimal digits only, so no sign,
    underscore or other script's digit that ``int`` would also take."""
    if not (raw.isascii() and raw.isdigit()):
        raise ParseError(f"{where}: expected a decimal integer, got {raw[:_EXCERPT]!r}")
    if len(raw) > _MAX_DIGITS:
        raise ParseError(f"{where}: number has more than {_MAX_DIGITS} digits")
    return int(raw)


def tensor_from_coo(text: str, source: str = "tensor") -> SymTensor:
    """Read canonical or ``full`` COO: each record names one entry in any
    index order, and a repeat must agree."""
    from .tensor import SymTensor

    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ParseError(f"{source}: missing '# order=.. dim=.. entries=..' header")
    header: dict[str, int] = {}
    for token in lines[0][1:].split():
        if "=" not in token:
            raise ParseError(f"{source}: bad header token {token!r}")
        name, _, raw = token.partition("=")
        if name not in _HEADER_KEYS:
            raise ParseError(f"{source}: unknown header key {name[:_EXCERPT]!r}")
        if name in header:
            raise ParseError(f"{source}: repeated header key {name}=")
        header[name] = _natural(raw, f"{source}: header {name}")
    for required in _HEADER_KEYS:
        if required not in header:
            raise ParseError(f"{source}: header lacks {required}=")
    order = header["order"]
    if len(lines) - 1 != header["entries"]:
        raise ParseError(
            f"{source}: header announces {header['entries']} records, found {len(lines) - 1}"
        )
    entries: dict[tuple[int, ...], Rational] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{source}: line {lineno}"
        tokens = line.split()
        if len(tokens) != order + 1:
            raise ParseError(f"{where}: expected {order} indices and a value")
        key = tuple(sorted(_natural(tok, where) for tok in tokens[:-1]))
        value = json_to_rational(tokens[-1], where)
        if entries.setdefault(key, value) != value:
            raise ParseError(f"{where}: conflicting values for {key}")
    try:
        return SymTensor(order=order, dim=header["dim"], entries=entries)
    except DomainError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def load_tensor_coo(path) -> SymTensor:
    text, source = _read(path)
    return tensor_from_coo(text, source)


# -- trace -------------------------------------------------------------------


def trace_to_obj(trace: UniformisationTrace) -> dict:
    return {"approach": trace.approach, "r_h": trace.r_h}


def trace_from_obj(obj, source: str = "trace") -> UniformisationTrace:
    """Read the two stored fields.  Any other key is ignored, so older trace
    files, which also carry an edge map and derived fields, still read."""
    from .transform import APPROACHES, UniformisationTrace

    _json(obj, dict, source, "approach", "r_h")
    if obj["approach"] not in APPROACHES:  # no repr: a decoded value may nest deep
        raise ParseError(f"{source}: 'approach' must be one of {', '.join(APPROACHES)}")
    return UniformisationTrace(obj["approach"], _integer(obj["r_h"], f"{source}: r_h"))


def load_trace(path) -> UniformisationTrace:
    text, source = _read(path)
    return trace_from_obj(_loads(text, source), source)


def dump_trace(trace: UniformisationTrace, path) -> None:
    Path(path).write_text(dumps(trace_to_obj(trace)), encoding="utf-8")
