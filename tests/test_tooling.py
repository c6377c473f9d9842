"""Project-wide checks: the pytest settings report a failing test and go on,
one module holds the cache-file format, the modules import in one layer
order, and the mutant register still applies."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

REPO = Path(__file__).resolve().parent.parent

FAILING_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # With warnings as errors, hypothesis' report hook raised mypy_extensions'
    # "TypedDict is deprecated" while reporting the failure: pytest stopped
    # with INTERNALERROR and the tests after it never ran.
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1
    assert "1 failed, 1 passed" in result.stdout


# numpy's .npy readers and writers, with ``numpy`` written as ``np``.
NPY_CALLS = ("np.save", "np.load", "np.fromfile")
NPY_MODULE = "np.lib.format"


def _dotted(node: ast.Attribute) -> str:
    """``a.b.c`` for an attribute chain on a name; "" for any other chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def _npy_uses(path: Path) -> list[str]:
    """``<file>:<line> <name>`` for each use or import of a ``.npy`` reader or
    writer in ``path``."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            names = [_dotted(node)]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            short = name.replace("numpy", "np", 1)
            if short in NPY_CALLS or short.startswith(NPY_MODULE):
                uses.append(f"{path.name}:{node.lineno} {name}")
    return uses


def test_only_the_cache_file_module_reads_or_writes_npy():
    # columns.write_cache and columns.read_cache are the one writer and the
    # one reader of every cache file.
    uses = {path.name: _npy_uses(path) for path in (REPO / "src" / "scoi").glob("*.py")}
    assert uses.pop("columns.py")  # the check sees them there
    assert [use for found in uses.values() for use in found] == []


def _imported_modules(path: Path) -> set[str]:
    """Every module ``path`` imports, by dotted name; ``from a import b``
    counts as ``a`` and as ``a.b``, since ``b`` may be a submodule."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_only_the_manifest_module_hashes_or_starts_threads():
    # manifest.py's digest helper is the one thread besides the main one.  It
    # calls nothing perfbench/traced.py wraps, whose tracer keeps one span
    # stack; a thread or hash elsewhere could reach a wrapped name.
    imports = {path.name: _imported_modules(path) for path in (REPO / "src" / "scoi").glob("*.py")}
    assert {"hashlib", "threading"} <= imports["manifest.py"]
    assert {name: found & {"hashlib", "threading"} for name, found in imports.items()
            if name != "manifest.py" and found & {"hashlib", "threading"}} == {}
    assert {name: sorted(m for m in found if m.startswith("concurrent.futures"))
            for name, found in imports.items()
            if any(m.startswith("concurrent.futures") for m in found)} == {}


def test_no_module_imports_dataclasses_or_inspect():
    # Both add start-up time to a command; the value types are named tuples.
    imports = {path.name: _imported_modules(path) for path in (REPO / "src" / "scoi").glob("*.py")}
    assert {name: sorted(found & {"dataclasses", "inspect"}) for name, found in imports.items()
            if found & {"dataclasses", "inspect"}} == {}


# The modules of src/scoi, each importing at run time only modules before it.
LAYERS = ("errors", "tokenizer", "prompts", "config", "manifest", "columns", "treepoly",
          "conllu", "coverage", "retrieval", "corpus", "selection", "bench", "cli")


def _runtime_imports(tree: ast.AST) -> Iterator[ast.Import | ast.ImportFrom]:
    """The import statements of ``tree`` outside ``if TYPE_CHECKING:`` blocks."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and (
            node.test.id == "TYPE_CHECKING"
        ):
            yield from _runtime_imports(ast.Module(body=node.orelse, type_ignores=[]))
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        yield from _runtime_imports(node)


def _scoi_imports(path: Path) -> list[tuple[str, list[str]]]:
    """(module of the package, names taken from it) for each run-time import
    in ``path`` of a module of ``scoi``, relative or absolute."""
    found = []
    for node in _runtime_imports(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[1], []) for alias in node.names
                      if alias.name.startswith("scoi.")]
            continue
        parts = node.module.split(".") if node.module else []
        if node.level == 0:
            if parts[0] != "scoi":
                continue
            parts = parts[1:]
        if parts:
            found.append((parts[0], [alias.name for alias in node.names]))
        else:  # ``from . import x``: x is a module, or a name of the package itself
            found += [(alias.name, []) for alias in node.names if alias.name in LAYERS]
    return found


def test_each_module_imports_only_earlier_modules_and_no_private_name():
    paths = {path.stem: path for path in (REPO / "src" / "scoi").glob("*.py")}
    assert set(paths) - {"__init__"} == set(LAYERS)
    later, private = [], []
    for i, name in enumerate(LAYERS):
        for module, names in _scoi_imports(paths[name]):
            if module not in LAYERS[:i]:
                later.append(f"{name} imports {module}")
            private += [f"{name} imports {module}.{n}" for n in names if n.startswith("_")]
    assert later == []
    assert private == []


def test_every_registered_mutant_applies_at_head_and_names_collected_tests():
    # scripts/mutants.py runs the register; this keeps it applicable.
    entries = json.loads((REPO / "scripts" / "mutants.json").read_text(encoding="utf-8"))
    assert len({entry["name"] for entry in entries}) == len(entries)
    for entry in entries:
        assert (REPO / entry["file"]).read_text(encoding="utf-8").count(entry["old"]) == 1, (
            entry["name"])
        assert entry["new"] != entry["old"] and entry["tests"], entry["name"]
    tests = sorted({test for entry in entries for test in entry["tests"]})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *tests],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert sorted(set(tests) & set(result.stdout.splitlines())) == tests, result.stdout[-2000:]
