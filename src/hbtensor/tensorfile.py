"""The tensor file: a sparse tensor's COO text ``T`` and its trace JSON
``T.trace.json``, the approach and r_H it was built under.

This module alone knows that layout.  ``dump_tensor`` writes the pair, for
``tensor --out T``, and ``load_tensor`` reads it, for ``verify --from-tensor
T``; no other verb loads this module.  Numbers follow ``io``'s one rule, and
every reader raises ``ParseError`` for any input it cannot read.  The two
names ``perfbench/layers.py`` reads, ``tensor_to_coo`` and ``trace_to_obj``,
also resolve as ``io.<name>``.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import DomainError, ParseError
from .hbgraph import Rational
from .io import (
    _CANNOT_PRINT,
    _EXCERPT,
    _MAX_DIGITS,
    _json,
    _loads,
    _read,
    dumps,
    format_rational,
    json_to_rational,
)
from .tensor import _FLOAT_ORDER, SymTensor, _log10_multinomial
from .transform import APPROACHES, UniformisationTrace

_HEADER_KEYS = ("order", "dim", "entries")
# the trace of the tensor file T is the file T + _TRACE
_TRACE = ".trace.json"


# -- COO ---------------------------------------------------------------------


def _denominators_too_long(t: SymTensor) -> bool:
    """Whether some value of ``t`` certainly has a reduced denominator of more
    than ``_MAX_DIGITS`` digits, told before any value is built.

    A value r * share / multinomial has a reduced denominator of at least
    multinomial / |numerator of r * share|.  No multinomial exceeds r!, so
    nothing is computed when log10 r! <= _MAX_DIGITS (r <= 1550).
    """
    r = t.order
    if r >= _FLOAT_ORDER or math.lgamma(r + 1) <= _MAX_DIGITS * math.log(10):
        return False
    return any(
        _log10_multinomial(runs, r) - math.log10(abs((r * share).numerator)) > _MAX_DIGITS
        for runs, share in t._entries.items()
    )


def tensor_to_coo(t: SymTensor, full: bool = False) -> str:
    """COO text of ``t``, one record per canonical entry, or per distinct
    permutation when ``full``.  A value whose denominator the printer would
    refuse is refused before any value is built, where the log-gammas tell."""
    if _denominators_too_long(t):
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


# -- trace -------------------------------------------------------------------


def trace_to_obj(trace: UniformisationTrace) -> dict:
    return {"approach": trace.approach, "r_h": trace.r_h}


def _integer(obj, where: str) -> int:
    """An integer field: 3, 3.0 and "3" read as 3; 2.5 and true are rejected."""
    value = json_to_rational(obj, where)
    if type(value) is not int:
        raise ParseError(f"{where}: expected an integer")
    return value


def trace_from_obj(obj, source: str = "trace") -> UniformisationTrace:
    """Read the two stored fields.  Any other key is ignored, so older trace
    files, which also carry an edge map and derived fields, still read."""
    _json(obj, dict, source, "approach", "r_h")
    if obj["approach"] not in APPROACHES:  # no repr: a decoded value may nest deep
        raise ParseError(f"{source}: 'approach' must be one of {', '.join(APPROACHES)}")
    return UniformisationTrace(obj["approach"], _integer(obj["r_h"], f"{source}: r_h"))


# -- the file pair -----------------------------------------------------------


def dump_tensor(t: SymTensor, trace: UniformisationTrace, path, full: bool = False) -> None:
    """Write the tensor file ``path``, the COO of ``t`` (``full`` as in
    ``tensor_to_coo``), and its trace.  The COO text is built first, so a
    refused value or expansion opens neither file."""
    coo = tensor_to_coo(t, full)
    Path(path).write_text(coo, encoding="utf-8")
    Path(f"{path}{_TRACE}").write_text(dumps(trace_to_obj(trace)), encoding="utf-8")


def load_tensor(path) -> tuple[SymTensor, UniformisationTrace]:
    """Read the tensor file ``path``: its COO, then its trace."""
    text, source = _read(path)
    tensor = tensor_from_coo(text, source)
    text, source = _read(f"{path}{_TRACE}")
    return tensor, trace_from_obj(_loads(text, source), source)
