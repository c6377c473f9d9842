"""Project-wide checks: the pytest settings report a failing test and go on,
and one module holds the cache-file format."""

import ast
import subprocess
import sys
from pathlib import Path

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
    # treepoly.write_cache and treepoly.read_cache are the one writer and the
    # one reader of every cache file.
    uses = {path.name: _npy_uses(path) for path in (REPO / "src" / "scoi").glob("*.py")}
    assert uses.pop("treepoly.py")  # the check sees them there
    assert [use for found in uses.values() for use in found] == []
