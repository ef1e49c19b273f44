from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import pytest

import hbtensor

# the 61 public names of the package root, by the module that defines each
HOMES = {
    "algebra": (
        "HbPolynomial LARGE MPath Multiset NumberedCopySet STRICT canonical_weighting"
        " count_paths decompose dilatation edge_distribution elementary_tensor hb_sum"
        " hypergraph_tensor interior_choices is_direct merge mset_hypermatrix"
        " reconstruct_hbgraph two_section uniform_tensor validate_path vertex_increase"
        " y_complement"
    ),
    "errors": (
        "DimensionMismatch DomainError EmptyEdge EmptyEdgeFamily EmptyMultiset"
        " HbTensorError IndexOutOfRange InvalidPath NonPositiveC NotAHypergraph"
        " NotNatural NotUniform ParseError RepeatedEdges TraceMismatch"
        " UniverseMismatch UnknownEdge UnknownVertex VertexCollision"
    ),
    "hbgraph": "HbGraph",
    "paths": "connected_components diameter distance is_connected",
    "spectral": "PowerIterationResult SpectralBoundReport estimate_max_eigenvalue spectral_bound",
    "tensor": "SymTensor e_adjacency_tensor reconstruct_edges",
    "transform": "APPROACHES LAYERED SILO STRAIGHTFORWARD UniformisationTrace uniformize",
}
PUBLIC = sorted(name for names in HOMES.values() for name in names.split())

# the public attributes of ``SymTensor``: one dense view, ``canonical_items``
# (expanded by ``full_items``), and one run view, ``polynomial``
SYMTENSOR = (
    "apply canonical_count canonical_items dim full_items get logical_nonzero_count"
    " order polynomial row_sum row_sums total_sum"
)

# past about this many parser tokens, compiling a module peaks about 0.23 MiB
# higher, and every run that imports the module (``tensor`` and ``verify``
# import the most) pays that in peak RSS
MAX_MODULE_TOKENS = 4096

# what each verb loads of the package, beyond ``hbtensor`` itself
BASE = {"cli", "errors", "hbgraph", "io"}
VERB_MODULES = [
    (["info", "g.json"], BASE),
    (["dual", "g.json"], BASE),
    (["export", "g.json", "--format", "csv"], BASE),
    (["export", "g.json", "--format", "json"], BASE),
    (["paths", "g.json"], BASE | {"paths"}),
    (["uniformize", "g.json", "--approach", "sil"], BASE | {"transform"}),
    (
        ["tensor", "g.json", "--approach", "sil", "--out", "t.coo"],
        BASE | {"transform", "tensor", "tensorfile"},
    ),
    (["verify", "g.json", "--approach", "str"], BASE | {"transform", "tensor", "spectral"}),
    (
        ["verify", "g.json", "--from-tensor", "t.coo"],
        BASE | {"transform", "tensor", "spectral", "tensorfile"},
    ),
]
# the verbs that, on a graph of integers, build no ``Fraction`` (``uniformize``
# weights its edges r_H / c, and ``tensor`` writes values that are not integers)
INTEGER_VERBS = [argv for argv, _ in VERB_MODULES if argv[0] in ("info", "dual", "export", "paths")]
INTEGER_VERBS += [["verify", "g.json", "--approach", ap] for ap in ("str", "sil", "lay")]
# what ``fractions`` loads, and no such verb may
FRACTION_MODULES = ("decimal", "fractions", "numbers")
# the names of ``io`` that ``tensorfile`` defines: the two ``perfbench/layers.py`` reads
MOVED_IO_NAMES = ("tensor_to_coo", "trace_to_obj")
# names of ``tensorfile`` that do not resolve as ``io.<name>``
GONE_IO_NAMES = (
    "_HEADER_KEYS", "_natural", "dump_trace", "load_tensor_coo", "load_trace",
    "tensor_from_coo", "trace_from_obj",
)


def _python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(Path(hbtensor.__file__).parents[1])},
    )


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


def test_console_script_takes_the_process_entry():
    # ``run``, not ``main``: the installed ``hbtensor`` ends as ``python -m hbtensor.cli`` does
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"hbtensor": "hbtensor.cli:run"}
    from hbtensor.cli import run

    assert callable(run)


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


def test_bare_import_loads_nothing_else():
    # ``-S``: no ``site``, which would preload ``importlib`` and much else
    probe = (
        "import sys; before = set(sys.modules); import hbtensor; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    run = _python("-S", "-c", probe)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["hbtensor"]


def test_each_verb_loads_only_the_modules_it_runs(tmp_path):
    (tmp_path / "g.json").write_text(
        (Path(__file__).parent / "golden" / "demo" / "export_json.stdout").read_text()
    )
    probe = (
        "import sys; from hbtensor.cli import main; code = main(sys.argv[1:]); "
        "names = sorted(m for m in sys.modules if m.startswith('hbtensor.')); "
        "sys.stderr.write(' '.join(names)); raise SystemExit(code)"
    )
    for argv, expected in VERB_MODULES:
        run = _python("-c", probe, *argv, cwd=tmp_path)
        assert run.returncode == 0, (argv, run.stderr)
        assert run.stderr.split() == sorted(f"hbtensor.{m}" for m in expected), argv


def test_verbs_on_integers_never_import_fractions(tmp_path):
    (tmp_path / "g.json").write_text(
        (Path(__file__).parent / "golden" / "demo" / "export_json.stdout").read_text()
    )
    probe = (
        "import sys; from hbtensor.cli import main; code = main(sys.argv[1:]); "
        f"sys.stderr.write(' '.join(m for m in {FRACTION_MODULES!r} if m in sys.modules)); "
        "raise SystemExit(code)"
    )
    for argv in INTEGER_VERBS:
        run = _python("-c", probe, *argv, cwd=tmp_path)
        assert (run.returncode, run.stderr) == (0, ""), argv


def test_moved_io_names_are_the_tensorfile_objects():
    import hbtensor.io
    import hbtensor.tensorfile

    for name in MOVED_IO_NAMES:
        assert getattr(hbtensor.io, name) is getattr(hbtensor.tensorfile, name), name
    namespace: dict = {}
    exec("from hbtensor.io import tensor_to_coo, trace_to_obj", namespace)
    assert namespace["tensor_to_coo"] is hbtensor.tensorfile.tensor_to_coo
    for name in ("no_such_name", *GONE_IO_NAMES):
        with pytest.raises(AttributeError, match=name):
            getattr(hbtensor.io, name)
    for name in ("dump_trace", "load_trace", "load_tensor_coo"):
        assert not hasattr(hbtensor.tensorfile, name), name


def test_public_api_through_the_lazy_root():
    assert hbtensor.__all__ == PUBLIC
    for module, names in HOMES.items():
        home = importlib.import_module(f"hbtensor.{module}")
        for name in names.split():
            assert getattr(hbtensor, name) is getattr(home, name), name
    assert set(PUBLIC) | {"__all__", "__version__"} <= set(dir(hbtensor))
    namespace: dict = {}
    exec("from hbtensor import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        hbtensor.no_such_name
    from hbtensor import tensor

    assert isinstance(tensor, types.ModuleType) and tensor.__name__ == "hbtensor.tensor"


def test_names_and_submodules_resolve_in_a_fresh_interpreter():
    probe = (
        "from hbtensor import SymTensor, spectral, uniformize; import hbtensor, sys; "
        "assert spectral is sys.modules['hbtensor.spectral']; "
        "assert SymTensor is sys.modules['hbtensor.tensor'].SymTensor; "
        "assert hbtensor.uniformize is uniformize; print(hbtensor.__version__)"
    )
    run = _python("-c", probe)
    assert (run.returncode, run.stdout, run.stderr) == (0, "0.1.0\n", "")


def test_symtensor_public_surface():
    from hbtensor import SymTensor

    assert [name for name in dir(SymTensor) if not name.startswith("_")] == SYMTENSOR.split()


def test_every_module_stays_under_the_compile_peak_step():
    """Parser tokens per module: ``tokenize`` tokens less comments, blank
    lines and the encoding and end markers."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING, tokenize.ENDMARKER}
    sizes = {}
    for path in sorted(Path(hbtensor.__file__).parent.glob("*.py")):
        with path.open("rb") as source:
            tokens = tokenize.tokenize(source.readline)
            sizes[path.name] = sum(token.type not in skipped for token in tokens)
    assert len(sizes) >= 10
    assert max(sizes.values()) < MAX_MODULE_TOKENS, sizes


def test_verify_decides_in_tensor():
    """``cmd_verify`` loads or builds the tensor, calls the one checks
    function and prints: of ``tensor`` it imports only the construction and
    that function, and it reads no private attribute of a graph or a tensor,
    whose layouts ``tensor`` reads for it."""
    tree = ast.parse((Path(hbtensor.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    (verify,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "cmd_verify"
    ]
    nodes = list(ast.walk(verify))
    imported = {
        alias.name
        for node in nodes
        if isinstance(node, ast.ImportFrom) and node.module == "tensor"
        for alias in node.names
    }
    assert imported == {"_identities", "e_adjacency_tensor"}
    assert not [node.attr for node in nodes if isinstance(node, ast.Attribute) and node.attr[0] == "_"]


def test_the_tensor_file_layout_is_known_in_tensorfile_alone():
    """``cli`` writes and reads a tensor file through ``dump_tensor`` and
    ``load_tensor`` only, and no module but ``tensorfile`` spells the trace's
    file name."""
    package = Path(hbtensor.__file__).parent
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tensorfile"
        for alias in node.names
    }
    assert imported == {"dump_tensor", "load_tensor"}
    spelled = [
        path.name
        for path in sorted(package.glob("*.py"))
        if ".trace.json" in path.read_text(encoding="utf-8")
    ]
    assert spelled == ["tensorfile.py"]


def module_literals(path: Path) -> dict:
    """{name: value} of the module-level ``name = <literal>`` lines of ``path``."""
    values = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                values[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return values


def test_names_the_benchmark_traced_pass_reads_still_resolve():
    """``perfbench/layers.py`` and ``perfbench/run.py``, read as source and
    never run: every name ``layers.py`` imports from the package root, every
    ``io.<name>``, and every attribute it reads of ``HbGraph``, of its graphs
    ``h`` or of its tensors ``t`` resolves; every keyword it passes to a
    package function is a parameter of that function; and every argument
    list of ``run.py``'s ``op_mix`` parses with the verb's parser.  So a moved
    name, a dropped keyword (``seed=``) or a dropped option (``--seed``)
    cannot break the benchmark (``run.py --trace 0`` and ``--trace 1``) unseen."""
    from hbtensor import HbGraph, SymTensor, io
    from hbtensor.cli import build_parser

    bench = Path(__file__).parent.parent / "perfbench"
    tree = ast.parse((bench / "layers.py").read_text(encoding="utf-8"))
    roots = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "hbtensor"
        for alias in node.names
    ]
    owners = {"io": io, "HbGraph": HbGraph, "h": HbGraph, "t": SymTensor}
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in owners
    }
    assert "io" in roots and {owner for owner, _ in reads} == set(owners)
    exec(f"from hbtensor import {', '.join(roots)}", {})  # submodules too
    missing = [f"{owner}.{attr}" for owner, attr in sorted(reads) if not hasattr(owners[owner], attr)]
    assert not missing

    # the keywords of each call of a root name or of an owner's attribute
    passed = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in roots:
            callee = getattr(hbtensor, fn.id)
        elif isinstance(fn, ast.Attribute) and getattr(fn.value, "id", None) in owners:
            callee = getattr(owners[fn.value.id], fn.attr)
        else:
            continue
        passed += [(callee, kw.arg) for kw in node.keywords]
    assert passed
    unknown = [
        f"{callee.__name__}({kw}=)"
        for callee, kw in passed
        if kw not in inspect.signature(callee).parameters
    ]
    assert not unknown

    # op_mix's argument lists: a literal as it is, a run.py constant at its
    # value, a loop over one of oracle.py's constants at its first element,
    # and any other part (an input or output path) as "x"
    values = module_literals(bench / "run.py")
    oracle = module_literals(bench / "oracle.py")
    tree = ast.parse((bench / "run.py").read_text(encoding="utf-8"))
    (op_mix,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "op_mix"
    ]
    for node in ast.walk(op_mix):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Attribute):
            values[node.target.id] = next(iter(oracle[node.iter.attr]))

    def part(node) -> str:
        if isinstance(node, ast.Constant):
            return node.value
        return values.get(node.id, "x") if isinstance(node, ast.Name) else "x"

    argvs = [list(map(part, node.elts)) for node in ast.walk(op_mix) if isinstance(node, ast.List)]
    assert {argv[0] for argv in argvs} == {"info", "paths", "tensor", "verify"}
    refused = []
    for argv in argvs:
        try:
            build_parser(argv[0]).parse_args(argv)
        except SystemExit:
            refused.append(argv)
    assert not refused
