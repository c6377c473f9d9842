"""The project's pytest settings: a failing test is reported and the session goes on."""

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
