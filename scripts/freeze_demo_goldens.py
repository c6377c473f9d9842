#!/usr/bin/env python3
"""Regenerate the frozen demo-corpus golden fixtures used by the CLI tests.

Runs a clean build+select on the bundled demo corpus into a temp directory
and copies a pinned subset of outputs into tests/fixtures/, together with
what a few `scoi inspect` calls print (demo_inspect.json) and the SHA-256
of each build cache plus that of the BM25 index `select` derives from them,
as `retrieval.save_index` writes it, under the name `bm25.idx`
(demo_cache_digests.json).  Only run this
deliberately after an intended behavior change; the point of the fixtures
is to make unintended output drift loud.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

from scoi.cli import _cache_paths, _load_built, main
from scoi.retrieval import save_index

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures"
GOLDENS = {
    "selections_scoi.jsonl": "demo_selections_scoi.jsonl",
    "selections_random.jsonl": "demo_selections_random.jsonl",
    "prompts_scoi.jsonl": "demo_prompts_scoi.jsonl",
}
# `scoi inspect` arguments whose output demo_inspect.json pins, keyed by them.
INSPECT_ARGS = (
    "--record 0",
    "--record 0 --pool 1,2,3",
    "--record 0 --side test",
    "--record 5 --pool 1,2,3 --measure cosine",
)


def run() -> None:
    config = REPO / "data" / "demo" / "demo.cfg"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert main(["build", "--config", str(config), "--out-dir", str(out)]) == 0
        assert main(["select", "--config", str(config), "--out-dir", str(out)]) == 0
        FIXTURES.mkdir(parents=True, exist_ok=True)
        for source, target in GOLDENS.items():
            shutil.copyfile(out / source, FIXTURES / target)
            print(f"froze {target}")
        printed = {}
        for args in INSPECT_ARGS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                argv = ["inspect", "--config", str(config), "--out-dir", str(out), *args.split()]
                assert main(argv) == 0
            printed[args] = buf.getvalue()
        text = json.dumps(printed, indent=1, ensure_ascii=False) + "\n"
        (FIXTURES / "demo_inspect.json").write_text(text, encoding="utf-8")
        print("froze demo_inspect.json")
        index_path = Path(tmp) / "bm25.idx"
        save_index(index_path, _load_built(out)[3])
        pinned = [*_cache_paths(out).values(), index_path]
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in pinned}
        text = json.dumps(digests, indent=1) + "\n"
        (FIXTURES / "demo_cache_digests.json").write_text(text, encoding="utf-8")
        print("froze demo_cache_digests.json")


if __name__ == "__main__":
    run()
