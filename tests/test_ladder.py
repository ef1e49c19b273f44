"""The scale ladder: every verb on one input at r_H = 10^6 and 10^9, and the
verbs that build by approach at r_H = 10^306, with an exit-code contract.

The input is {a^M}, {a, b}: two hb-edges, so every cost beyond a constant
is a cost in r_H = M.  Each cell runs the command line in a child process
with a 1 GiB address space, 100 MiB of file size and a wall-time limit, and
must exit 0-3: a result, a failed check, a parse error or a refusal.  An exit
3 must name the quantity it refused.  An exit 4 (an internal error such as
``MemoryError``) breaks the contract.

Past 10^8 indices or vertex names (``transform.MAX_INDICES``) a verb refuses
before it allocates: ``tensor``'s dense keys (p * r_H indices) and
``uniformize``'s vertex list (n + n_a names).  ``verify --approach`` reads
its rows and twin classes off the tensor's piece table, O(runs) whatever the
dimension, so it answers on every rung.  ``verify --from-tensor`` is a cell
wherever ``tensor`` writes a file: from M = 10^9 on no approach does (each
exits 3), so those rungs have no such cell until ROADMAP item 8 lands.
"""

from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import hbtensor
from hbtensor.cli import main

M6, M9, M306 = 10**6, 10**9, 10**306
APPROACHES = ("str", "sil", "lay")
# a refusal names what it refused: a message with its size or its limit
REFUSAL = re.compile(r"error: [^\n]*\d[^\n]*\n")
SECONDS = 60


def _rung(m: int) -> str:
    """A power of ten as 1e<exponent>, for a test id or a file name."""
    return f"1e{len(str(m)) - 1}"


def _cells():
    for m in (M6, M9, M306):
        if m != M306:
            yield pytest.param(m, "info", None, id=f"{_rung(m)}-info")
            yield pytest.param(m, "paths", None, id=f"{_rung(m)}-paths")
        for verb in ("uniformize", "tensor", "verify"):
            for approach in APPROACHES:
                yield pytest.param(m, verb, approach, id=f"{_rung(m)}-{verb}-{approach}")
    # where ``tensor`` writes a file
    for approach in ("str", "sil"):
        yield pytest.param(M6, "from-tensor", approach, id=f"1e6-verify-from-tensor-{approach}")


def _limits():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    resource.setrlimit(resource.RLIMIT_FSIZE, (100 * 2**20, 100 * 2**20))


class Ladder:
    """Runs the command line on the ladder's inputs under the limits, once
    per argument list, so a ``--from-tensor`` cell reuses the ``tensor`` run
    that wrote its file."""

    def __init__(self, root: Path):
        self.root = root
        self.runs = {}
        for m in (M6, M9, M306):
            edges = [{"mult": {"a": m}}, {"mult": {"a": 1, "b": 1}}]
            self.graph(m).write_text(json.dumps({"vertices": ["a", "b"], "edges": edges}))

    def graph(self, m: int) -> Path:
        return self.root / f"g{_rung(m)}.json"

    def tensor(self, m: int, approach: str) -> Path:
        return self.root / f"t{_rung(m)}{approach}.coo"

    def run(self, *args: str) -> subprocess.CompletedProcess:
        if args not in self.runs:
            env = {**os.environ, "PYTHONPATH": str(Path(hbtensor.__file__).parents[1])}
            # stdout to a file, so that the file-size limit bounds it too
            stdout = self.root / "stdout"
            with stdout.open("wb") as out:
                self.runs[args] = subprocess.run(
                    [sys.executable, "-m", "hbtensor.cli", *args], stdout=out,
                    stderr=subprocess.PIPE, text=True, env=env, cwd=self.root,
                    timeout=SECONDS, preexec_fn=_limits,
                )
            stdout.unlink()
        return self.runs[args]

    def cell(self, m: int, verb: str, approach: str | None) -> subprocess.CompletedProcess:
        graph = str(self.graph(m))
        if verb in ("info", "paths"):
            return self.run(verb, graph)
        if verb == "from-tensor":
            assert self.run(*self._tensor_args(m, approach)).returncode == 0
            return self.run("verify", graph, "--from-tensor", str(self.tensor(m, approach)))
        if verb == "tensor":
            return self.run(*self._tensor_args(m, approach))
        return self.run(verb, graph, "--approach", approach)

    def _tensor_args(self, m: int, approach: str) -> tuple[str, ...]:
        out = str(self.tensor(m, approach))
        return "tensor", str(self.graph(m)), "--approach", approach, "--out", out


@pytest.fixture(scope="module")
def ladder(tmp_path_factory) -> Ladder:
    return Ladder(tmp_path_factory.mktemp("ladder"))


@pytest.mark.parametrize("m, verb, approach", _cells())
def test_scale_ladder_exits_0_to_3(ladder, m, verb, approach):
    run = ladder.cell(m, verb, approach)
    assert run.returncode in (0, 1, 2, 3), run.stderr
    if run.returncode == 3:
        assert REFUSAL.fullmatch(run.stderr), run.stderr
    if run.returncode == 0:
        assert run.stderr == ""


@pytest.mark.parametrize("m", [M9, M306], ids=_rung)
@pytest.mark.parametrize("approach", ("sil", "lay"))
def test_verify_answers_at_any_dimension(ladder, m, approach):
    """Silo and layered ``verify`` at dimension M: the piece table holds a
    row sum per range between two run boundaries, not per row, so each
    exits 0 with nothing on stderr."""
    run = ladder.cell(m, "verify", approach)
    assert (run.returncode, run.stderr) == (0, "")


@pytest.mark.parametrize("m", [M9, M306], ids=_rung)
@pytest.mark.parametrize("approach", APPROACHES)
def test_a_refused_tensor_writes_neither_file(ladder, m, approach):
    """Each ``tensor`` cell past the limits exits 3 before it opens a file:
    neither the tensor file nor its trace is there after the run."""
    run = ladder.cell(m, "tensor", approach)
    assert run.returncode == 3, run.stderr
    out = ladder.tensor(m, approach)
    assert not out.exists() and not Path(f"{out}.trace.json").exists()


def test_a_failed_trace_write_leaves_no_tensor_file(tmp_path, capsys):
    """``tensor --out T`` beside a directory named ``T.trace.json`` cannot
    write the trace: it exits 2 and leaves no ``T`` without its trace."""
    graph, out = tmp_path / "g.json", tmp_path / "t.coo"
    graph.write_text(json.dumps({"vertices": ["a", "b"], "edges": [{"mult": {"a": 3, "b": 1}}]}))
    Path(f"{out}.trace.json").mkdir()
    assert main(["tensor", str(graph), "--approach", "sil", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("m, approach", [(2000, "str"), (2000, "sil"), (10**306, "lay")])
def test_full_export_past_the_index_limit_exits_3(tmp_path, m, approach):
    """``tensor --full`` on {a^M}, {a, b}, under the ladder's limits.  At M =
    2000 the {a, b} entry expands to 2000 * 1999 records, under the record
    limit, of 2000 indices each; at M = 10^306 no multinomial can be built.
    Each is refused, naming the count and the limit, before any record is
    built and before either file is opened."""
    graph = tmp_path / "g.json"
    edges = [{"mult": {"a": m}}, {"mult": {"a": 1, "b": 1}}]
    graph.write_text(json.dumps({"vertices": ["a", "b"], "edges": edges}))
    env = {**os.environ, "PYTHONPATH": str(Path(hbtensor.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "hbtensor.cli", "tensor", str(graph), "--approach", approach,
         "--full", "--out", "t.coo"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=SECONDS,
        preexec_fn=_limits,
    )
    assert (run.returncode, run.stdout) == (3, ""), run.stderr
    assert REFUSAL.fullmatch(run.stderr) and "indices (limit 100000000)" in run.stderr
    assert [path.name for path in tmp_path.iterdir()] == ["g.json"]
