#!/usr/bin/env python3
"""Check that the tests still kill every mutant in the register.

    python3 scripts/mutants.py

``scripts/mutants.json`` lists mutants of ``src``: each has a ``name``, a
``why``, a ``file``, an exact ``old`` text that occurs once in that file, the
``new`` text that replaces it, and the pytest node ``tests`` that must fail
once it is applied.  The script copies this checkout's ``src``, ``tests`` and
the files the tests read into a temporary directory, so the checkout itself
is not touched.  There it runs every named test once unmutated, and they
must pass.  Then, for each mutant, it applies the mutant, runs only its tests
and expects at least one to fail or not to import, and puts the file back.
Prints one line per mutant with its outcome and seconds, and exits 1 if the
unmutated run fails or any mutant survives.

A Tier-1 test (``tests/test_tooling.py``) checks that every ``old`` text
occurs exactly once at HEAD and that every named test is collected, so a
refactor that moves a mutant's code updates its entry here.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REGISTER = ROOT / "scripts" / "mutants.json"
# The code, the tests and the files the tests read.
COPIED = ("src", "tests", "data", "perfbench", "scripts", "pyproject.toml", "README.md",
          "BENCHMARK.json")


def _pytest(copy: Path, tests: list[str]) -> tuple[int, float]:
    """Exit code and seconds of one pytest run of ``tests`` in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode, time.perf_counter() - start


def main() -> int:
    entries = json.loads(REGISTER.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="scoi-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            else:
                shutil.copy2(source, copy / name)
        tests = sorted({test for entry in entries for test in entry["tests"]})
        code, seconds = _pytest(copy, tests)
        print(f"unmutated: {len(tests)} tests {'pass' if code == 0 else 'FAIL'} ({seconds:.1f}s)")
        if code != 0:
            return 1
        survived = []
        for entry in entries:
            path = copy / entry["file"]
            text = path.read_text(encoding="utf-8")
            if text.count(entry["old"]) != 1:
                print(f"{entry['name']}: its old text does not occur once in {entry['file']}")
                survived.append(entry["name"])
                continue
            path.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")
            try:
                code, seconds = _pytest(copy, entry["tests"])
            finally:
                path.write_text(text, encoding="utf-8")
            killed = code in (1, 2)  # tests failed, or collecting them did
            print(f"{entry['name']}: {'killed' if killed else 'SURVIVED'} ({seconds:.1f}s)")
            if not killed:
                survived.append(entry["name"])
    if survived:
        print(f"not killed: {', '.join(survived)}")
        return 1
    print(f"all {len(entries)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
