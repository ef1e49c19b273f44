"""Checks of the CLI's output against the generated input.

Every check returns ``None`` when the output is right and a one-line reason
when it is not.  The expected values are computed here from the generator's
edge list, by the closed forms of the three m-uniformisations; this module
does not import ``hbtensor``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

from gen import Graph

APPROACHES = {"str": "straightforward", "sil": "silo", "lay": "layered"}


def tensor_dim(g: Graph, ap: str) -> int:
    if ap == "str":
        return g.n + 1
    return g.n + g.r_h - 1 if g.r_h > 1 else g.n


def padding(c: int, r_h: int, n: int, ap: str) -> dict[int, int]:
    """Null-vertex indices added to an edge of m-cardinality ``c``."""
    if c == r_h:
        return {}
    if ap == "str":
        return {n + 1: r_h - c}
    if ap == "sil":
        return {n + c: r_h - c}
    return {n + k: 1 for k in range(c, r_h)}


def entry_value(key: dict[int, int], weight: int, r_h: int) -> Fraction:
    """weight * prod(m!) / (r_H - 1)! over the padded key's multiplicities."""
    return Fraction(
        weight * math.prod(math.factorial(m) for m in key.values()),
        math.factorial(r_h - 1),
    )


def check_coo(g: Graph, ap: str, text: str, trace_text: str) -> str | None:
    """Header, reconstruction, closed-form padding and value of every entry."""
    lines = text.splitlines()
    want = f"# order={g.r_h} dim={tensor_dim(g, ap)} entries={g.p}"
    if not lines or lines[0] != want:
        return f"header {lines[0] if lines else ''!r}, expected {want!r}"
    if len(lines) - 1 != g.p:
        return f"{len(lines) - 1} entry lines for {g.p} edges"
    by_edge = {tuple(sorted(e.items())): k for k, e in enumerate(g.edges)}
    parsed = []
    for line in lines[1:]:
        *idx, raw = line.split()
        key = Counter(int(i) for i in idx)
        original = tuple(sorted((i, m) for i, m in key.items() if i <= g.n))
        parsed.append((key, original, Fraction(raw)))
    recovered = Counter(original for _, original, _ in parsed)
    if recovered != Counter(by_edge.keys()):
        return "deleting null indices does not give back the input edges"
    for key, original, value in parsed:
        k = by_edge[original]
        e = g.edges[k]
        expected_key = dict(e)
        expected_key.update(padding(sum(e.values()), g.r_h, g.n, ap))
        if dict(key) != expected_key:
            return f"padding of edge {k + 1} is {sorted(key.items())}"
        expected = entry_value(expected_key, g.weight(k), g.r_h)
        if value != expected:
            return f"value of edge {k + 1} is {value}, expected {expected}"
    trace = json.loads(trace_text)
    if trace.get("approach") != APPROACHES[ap] or trace.get("r_h") != g.r_h:
        return "trace file names the wrong approach or r_H"
    return None


def check_info(g: Graph, text: str) -> str | None:
    """Order, size, m-range and the per-vertex table."""
    lines = text.splitlines()
    table = g.vertex_table()
    head = {
        "order": str(sum(top for _, _, top in table)),
        "size": str(g.p),
        "m-range": str(g.r_h),
    }
    for line in lines:
        name, sep, value = line.partition(": ")
        if sep and name in head and head.pop(name) != value:
            return f"{line!r} is wrong"
    if head:
        return f"missing lines {sorted(head)}"
    try:
        start = lines.index("vertex m-degree degree max-mult") + 1
    except ValueError:
        return "no vertex table"
    for i, (line, row) in enumerate(zip(lines[start:], table), start=1):
        expected = f"v{i} {row[0]} {row[1]} {row[2]}"
        if line != expected:
            return f"vertex line {line!r}, expected {expected!r}"
    if len(lines) < start + g.n:
        return "vertex table is short"
    return None


def check_verify(text: str) -> str | None:
    report = json.loads(text)
    if report.get("passed") is not True or not all(report["checks"].values()):
        failed = sorted(k for k, ok in report["checks"].items() if not ok)
        return f"verify did not pass: {failed}"
    return None


def weighted_verify_defect(code: int, stdout: str) -> bool:
    """The known defect of ``verify`` on a weighted hb-graph: exit 1 with
    exactly the three weight-blind checks false."""
    if code != 1:
        return False
    failed = {k for k, ok in json.loads(stdout)["checks"].items() if not ok}
    return failed == {"degree_retrieval", "total_sum", "edge_distribution"}


def overflow_defect(code: int, stderr: str) -> bool:
    """The known defect of ``verify`` at large r_H: the power iteration's
    float conversion overflows and the CLI exits 4."""
    return code == 4 and stderr.strip() == "internal error: int too large to convert to float"


def check_paths(g: Graph, text: str) -> str | None:
    report = json.loads(text)
    expected = g.component_count()
    if len(report["components"]) != expected:
        return f"{len(report['components'])} components, expected {expected}"
    if (report["diameter"] == "inf") != (expected > 1):
        return f"diameter {report['diameter']!r} with {expected} components"
    return None
