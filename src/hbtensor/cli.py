"""Command-line front end.

Verbs: info, dual, uniformize, tensor, verify, paths, export.  Exit codes:
0 success (verify: all exact checks pass), 1 verification failure, 2 parse
error or an ``--out`` that cannot be written, 3 precondition violation, 4
internal error, printed with the exception's type.  All human-facing indices
are 1-based; output is deterministic for fixed input and flags.

``tensor --out T`` is the one tensor writer: it writes the tensor file
``T``, canonical or ``--full``, by ``tensorfile.dump_tensor``.  ``uniformize``
emits the uniform hb-graph alone (its m-range is r_H, its vertex list names
the null vertices).  ``verify`` takes exactly one of ``--approach`` and
``--from-tensor T``, which reads that file by ``tensorfile.load_tensor``;
how a tensor file is laid out is known there alone.  Either way the checks,
refusals included, are one function, ``_identities``.
``export`` writes the graph formats, incidence CSV and JSON.

Each verb imports only the modules it runs, so a start-up compiles no more of
the package than it needs.  ``info``, ``dual`` and ``export`` load ``cli``,
``errors``, ``hbgraph`` and ``io``; ``paths`` adds ``paths``;
``uniformize`` adds ``transform``; ``tensor`` adds ``transform``, ``tensor``
and the tensor-file formats, ``tensorfile``; ``verify --approach`` adds
``transform``, ``tensor`` and ``spectral``, and ``verify --from-tensor``
``tensorfile`` as well.  No verb loads ``algebra``, so no verb builds a
``Multiset``: each reads the hb-edges' stored keys and the hb-stars.  Nor
does a verb import ``fractions`` (and with it ``decimal`` and ``numbers``)
before it builds its first non-integer value, so ``info``, ``paths``,
``dual``, ``export`` and ``verify --approach`` on a graph of integers never
do.
A run that names a verb builds only that verb's subparser.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path

from . import io
from .errors import DomainError, ParseError


def _approach(value: str) -> str:
    """An approach named in full or by its first three letters."""
    from .transform import APPROACHES

    for name in APPROACHES:
        if value in (name, name[:3]):
            return name
    raise argparse.ArgumentTypeError(f"unknown approach {value!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cell(v: str) -> str:
    """A vertex id as a space-separated cell: an empty id, or one holding
    whitespace or a double quote, as a JSON string literal; any other as it is."""
    if v and not any(c.isspace() or c == '"' for c in v):
        return v
    return json.dumps(v)


def cmd_info(args) -> int:
    h = io.load_hbgraph(args.input)
    show = io.format_rational
    lines = [f"order: {show(h.order())}", f"size: {h.size()}"]
    if h.p:
        r, cr = h.m_range(), h.m_corange()
        lines.append(f"m-range: {show(r)}")
        lines.append(f"m-co-range: {show(cr)}")
        lines.append(f"k-m-uniform: {show(r) if r == cr else 'no'}")
    else:
        lines.extend(["m-range: n/a", "m-co-range: n/a", "k-m-uniform: n/a"])
    # each vertex's row, read off its hb-star: m-degree, degree, max-mult
    rows = [
        (sum(m for _, m in star), len(star), max((m for _, m in star), default=0))
        for star in h._stars
    ]
    degrees = {row[0] for row in rows}
    lines.append(f"k-m-regular: {show(degrees.pop()) if len(degrees) == 1 else 'no'}")
    isolated = h.isolated_vertices()
    lines.append("isolated: " + (" ".join(map(_cell, isolated)) if isolated else "none"))
    lines.append("vertex m-degree degree max-mult")
    for v, (m_degree, degree, top) in zip(h.vertices, rows):
        lines.append(f"{_cell(v)} {show(m_degree)} {degree} {show(top)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_dual(args) -> int:
    h = io.load_hbgraph(args.input)
    _emit(io.dumps(io.hbgraph_to_obj(h.dual())), args.out)
    return 0


def cmd_uniformize(args) -> int:
    from .transform import uniformize

    uniform, _ = uniformize(io.load_hbgraph(args.input), args.approach)
    _emit(io.dumps(io.hbgraph_to_obj(uniform)), args.out)
    return 0


def cmd_tensor(args) -> int:
    from .tensor import e_adjacency_tensor
    from .tensorfile import dump_tensor

    tensor, trace = e_adjacency_tensor(io.load_hbgraph(args.input), args.approach)
    dump_tensor(tensor, trace, args.out, full=args.full)
    return 0


def cmd_verify(args) -> int:
    # tensor first: its compile, the largest, then peaks before spectral's
    # code is alive, which keeps the run's peak RSS about 0.1 MiB lower
    from .tensor import _identities, e_adjacency_tensor
    from .spectral import estimate_max_eigenvalue, spectral_bound

    h = io.load_hbgraph(args.input)
    if args.from_tensor:
        from .tensorfile import load_tensor

        tensor, trace = load_tensor(args.from_tensor)
    else:
        tensor, trace = e_adjacency_tensor(h, args.approach)
    checks = _identities(h, tensor, trace)
    estimate = estimate_max_eigenvalue(tensor) if tensor.order >= 2 else None
    report = spectral_bound(tensor, trace)
    bound_obj = {
        "approach": report.approach,
        "r_h": report.r_h,
        "delta": io.rational_to_json(report.delta),
        "delta_star": io.rational_to_json(report.delta_star),
        "bound": io.rational_to_json(report.bound),
        "empirical_lambda": round(estimate.value, 9) if estimate else None,
        "converged": estimate.converged if estimate else None,
    }
    passed = all(checks.values())
    sys.stdout.write(io.dumps({"checks": checks, "bound": bound_obj, "passed": passed}))
    return 0 if passed else 1


def cmd_paths(args) -> int:
    from .paths import connected_components, diameter, distance

    h = io.load_hbgraph(args.input)
    want_all = not (args.pair or args.components or args.diameter)
    report: dict = {}
    if args.components or want_all:
        report["components"] = [list(c) for c in connected_components(h)]
    if args.diameter or want_all:
        d = diameter(h)
        report["diameter"] = "inf" if d == math.inf else d
    if args.pair:
        x, y = args.pair
        d = distance(h, x, y)
        report["distance"] = {"from": x, "to": y, "value": "inf" if d == math.inf else d}
    _emit(io.dumps(report), args.out)
    return 0


def cmd_export(args) -> int:
    h = io.load_hbgraph(args.input)
    if args.format == "csv":
        _emit(io.incidence_csv(h), args.out)
    else:  # json
        _emit(io.dumps(io.hbgraph_to_obj(h)), args.out)
    return 0


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or, when ``verb`` names one, a parser whose
    one subparser is that verb's: argparse looks up every parser's strings in
    gettext, a search of the locale directories each time.  Either parses an
    argument list that starts with ``verb`` alike, and prints the same."""
    parser = argparse.ArgumentParser(
        prog="hbtensor",
        description="Hyper-bag-graph metrics, uniformisation and e-adjacency tensors.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        # the verb's subparser, or None when another verb is being built
        if verb not in (None, name):
            sub.choices[name] = None  # named in the usage; argv[0] never chooses it
            return None
        p = sub.add_parser(name, **kwargs)
        p.add_argument("input", help="hb-graph JSON file")
        p.set_defaults(fn=fn)
        return p

    if p := add("info", cmd_info, help="print structural metrics"):
        p.add_argument("--out")

    if p := add("dual", cmd_dual, help="write the dual hb-graph"):
        p.add_argument("--out")

    if p := add("uniformize", cmd_uniformize, help="m-uniformize the hb-graph"):
        p.add_argument("--approach", type=_approach, required=True)
        p.add_argument("--out")

    if p := add("tensor", cmd_tensor, help="build the e-adjacency tensor"):
        p.add_argument("--approach", type=_approach, required=True)
        p.add_argument("--full", action="store_true")
        p.add_argument("--out", required=True)

    if p := add("verify", cmd_verify, help="run the exact structural checks"):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--approach", type=_approach)
        source.add_argument("--from-tensor", dest="from_tensor")
        p.add_argument("--seed", type=int, help="ignored: the estimate starts at x = 1")

    if p := add("paths", cmd_paths, help="distance, components, diameter"):
        p.add_argument("--pair", nargs=2, metavar=("FROM", "TO"))
        p.add_argument("--components", action="store_true")
        p.add_argument("--diameter", action="store_true")
        p.add_argument("--out")

    if p := add("export", cmd_export, help="export incidence CSV or hb-graph JSON"):
        p.add_argument("--format", choices=("json", "csv"), required=True)
        p.add_argument("--out")

    # no verb of that name: every verb, for argparse's own help or error
    return parser if verb in (None, *sub.choices) else build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(*argv[:1]).parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an --out that cannot be written; the message names it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # the type names what happened where the message is empty, as for MemoryError()
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"internal error: {detail}", file=sys.stderr)
        return 4


def run() -> None:
    """The process entry, for ``python -m hbtensor.cli`` and the ``hbtensor``
    script: ``main()`` with the cyclic GC off, then a flush of standard output
    and error and ``os._exit``, which skips the interpreter's teardown.

    A run makes about a hundred cyclic objects, however large its input, so a
    collection during it finds next to nothing; and the teardown (modules,
    ``site``'s preloads, the heap) frees memory the process is about to give
    back whole.  Every file a verb writes is closed before ``main()`` returns,
    so what is left to save is the two standard streams.  A ``SystemExit`` or
    other exception out of ``main()``, and a flush that fails (a closed pipe),
    take the interpreter's usual exit.  ``main()`` itself leaves the GC and
    the process alone, for callers in the same process."""
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
