"""Golden CLI outputs, byte for byte.

Every verb below runs in-process on two inputs: the demo graph of
``test_cli.py`` and a small graph with ``Fraction`` edge weights.  For each
case the exit code, stdout, stderr and every file the verb writes must equal
the copies under ``tests/golden/<input>/``.  For ``verify`` only the exact
fields are pinned (checks, passed, and the bound's approach, r_H, Delta,
Delta* and bound); the floating-point estimator fields are left out.  The
``verify_from_tensor`` cases read back the golden COO tensor and trace that
the ``tensor`` cases wrote, so the tensor reader is pinned as well as the
writer.

The goldens record the output of the code at the time they were written.
After an intended output change, regenerate them by hand from the repository
root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff under ``tests/golden/`` before committing it.
"""

from __future__ import annotations

import contextlib
import io as textio
import json
import tempfile
from pathlib import Path

import pytest

from hbtensor.cli import main
from hbtensor.io import dumps

GOLDEN = Path(__file__).parent / "golden"

DEMO = {
    "vertices": ["v1", "v2", "v3", "v4", "v5", "v6", "v7"],
    "edges": [
        {"mult": {"v1": 2, "v4": 2, "v5": 1}},
        {"mult": {"v2": 3, "v3": 1}},
        {"mult": {"v3": 1, "v5": 2}},
        {"mult": {"v6": 1}},
    ],
}

WEIGHTED = {
    "vertices": ["a", "b", "c", "d", "e"],
    "edges": [
        {"mult": {"a": 2, "b": 1}, "weight": "1/2"},
        {"mult": {"b": 1, "c": 3, "d": 1}, "weight": "7/3"},
        {"mult": {"d": 2}, "weight": 2},
        {"mult": {"a": 1, "e": 1}, "weight": "5/4"},
    ],
}

INPUTS = {"demo": DEMO, "weighted": WEIGHTED}

APPROACHES = ("str", "sil", "lay")

# case name -> CLI arguments after the input file; "t.coo" is written into
# the case's working directory
CASES = {
    "info": ["info"],
    "paths": ["paths"],
    "dual": ["dual"],
    **{f"uniformize_{a}": ["uniformize", "--approach", a] for a in APPROACHES},
    **{f"tensor_{a}": ["tensor", "--approach", a, "--out", "t.coo"] for a in APPROACHES},
    "tensor_full_sil": ["tensor", "--approach", "sil", "--full", "--out", "t.coo"],
    "export_csv": ["export", "--format", "csv"],
    "export_json": ["export", "--format", "json"],
}

VERIFY_CASES = {f"verify_{a}": ["verify", "--approach", a] for a in APPROACHES}

# verify on the committed output of the matching tensor case, whose trace it
# reads from <tensor>.trace.json; the names are resolved in the input's golden
# folder (``cases_for``), which ``regenerate`` fills in CASES order, so the
# tensor files exist before these cases run.  The full expansion of the silo
# tensor reads back to the same report as its canonical file.
FROM_TENSOR_CASES = {
    f"verify_from_tensor_{a}": ["verify", "--from-tensor", f"tensor_{a}.file.t.coo"]
    for a in (*APPROACHES, "full_sil")
}

EXACT_BOUND_FIELDS = ("approach", "r_h", "delta", "delta_star", "bound")


def run_case(graph: dict, args: list[str]) -> dict[str, str]:
    """Run one verb in a fresh directory; return every pinned output by name."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        source = work / "input.json"
        source.write_text(dumps(graph), encoding="utf-8")
        argv = [args[0], str(source)] + [
            str(work / a) if a == "t.coo" else a for a in args[1:]
        ]
        out, err = textio.StringIO(), textio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        outputs = {"exit": f"{code}\n", "stdout": out.getvalue(), "stderr": err.getvalue()}
        for path in sorted(work.iterdir()):
            if path != source:
                outputs["file." + path.name] = path.read_text(encoding="utf-8")
    if args[0] == "verify":
        report = json.loads(outputs["stdout"])
        report["bound"] = {k: report["bound"][k] for k in EXACT_BOUND_FIELDS}
        outputs["stdout"] = dumps(report)
    return outputs


def cases_for(input_name: str) -> dict[str, list[str]]:
    folder = GOLDEN / input_name
    from_tensor = {
        case: [str(folder / a) if a.startswith("tensor_") else a for a in args]
        for case, args in FROM_TENSOR_CASES.items()
    }
    return {**CASES, **VERIFY_CASES, **from_tensor}


def golden_files(input_name: str, case: str) -> dict[str, str]:
    folder = GOLDEN / input_name
    prefix = case + "."
    return {
        p.name[len(prefix):]: p.read_text(encoding="utf-8")
        for p in sorted(folder.glob(prefix + "*"))
    }


def regenerate() -> None:
    for input_name, graph in INPUTS.items():
        folder = GOLDEN / input_name
        folder.mkdir(parents=True, exist_ok=True)
        for old in folder.iterdir():
            old.unlink()
        for case, args in cases_for(input_name).items():
            for name, text in run_case(graph, args).items():
                (folder / f"{case}.{name}").write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "input_name, case",
    [(i, c) for i in INPUTS for c in cases_for(i)],
)
def test_cli_matches_golden(input_name, case):
    expected = golden_files(input_name, case)
    assert expected, f"no golden files for {input_name}/{case}"
    assert run_case(INPUTS[input_name], cases_for(input_name)[case]) == expected


@pytest.mark.parametrize("input_name", INPUTS)
def test_every_golden_file_belongs_to_a_case(input_name):
    cases = cases_for(input_name)
    stray = [
        p.name for p in sorted((GOLDEN / input_name).iterdir())
        if p.name.partition(".")[0] not in cases
    ]
    assert not stray, f"golden files of no case in {input_name}: {stray}"


if __name__ == "__main__":
    regenerate()
