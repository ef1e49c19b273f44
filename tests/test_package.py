from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import hbtensor


def test_all_exports_no_modules():
    exported = [getattr(hbtensor, name) for name in hbtensor.__all__]
    assert not [obj for obj in exported if isinstance(obj, types.ModuleType)]
    assert {"HbGraph", "SymTensor", "uniformize", "e_adjacency_tensor"} <= set(
        hbtensor.__all__
    )


def test_imports_are_standard_library_only():
    sources = sorted(Path(hbtensor.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside


def test_cli_import_loads_no_code_introspection_modules():
    # what a fresh interpreter loads for the CLI, less what ``site`` preloaded
    probe = (
        "import sys; before = set(sys.modules); import hbtensor.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(hbtensor.__file__).parents[1])},
    )
    loaded = set(run.stdout.split())
    assert "hbtensor.cli" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & loaded


def test_readme_python_quickstart_runs():
    """The README's library quickstart runs as written, and its
    ``edge_distribution`` line returns the value in its comment."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Library quickstart", 1)[1]
    block = quickstart.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    (line,) = [ln for ln in block.splitlines() if ln.startswith("edge_distribution(")]
    call, _, comment = line.partition("#")
    assert eval(call, namespace) == ast.literal_eval(comment.strip())
