"""Correctness gate for the pipeline benchmark.

Every selection the benchmark asks for is either checked and counted as
passed or counted as failed; ``failed_share`` is failed over attempted.
The checks use only the generated input files and the outputs on disk,
never the program's own caches.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

STRATEGIES = ("scoi", "syntax-only", "word-only", "topk-poly", "dpp", "bm25-passthrough",
              "random")
# Outputs of the bundled demo config pinned by the repository's golden files.
DEMO_GOLDENS = ("selections_scoi", "selections_random", "prompts_scoi")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_tree(paths) -> str:
    """One digest over (name, content digest) of several files."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(f"{path.name}\0{sha256_file(path)}\n".encode("utf-8"))
    return digest.hexdigest()


def _lines(path: Path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True) if path.is_file() else []


class Tally:
    """Attempted and failed (test input, strategy) selections, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed_keys: set, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failed_keys)
        self.problems.extend(problems)

    def note(self, problem: str) -> None:
        """A defect that is not one selection (a build stage, a cache digest)."""
        self.problems.append(problem)


def check_demo(demo_out: Path, fixtures: Path, tally: Tally) -> None:
    """Demo outputs must match the golden files byte for byte.

    One (test input, strategy) selection fails when its selection line or,
    for scoi, its prompt line differs.
    """
    golden = {name: _lines(fixtures / f"demo_{name}.jsonl") for name in DEMO_GOLDENS}
    produced = {name: _lines(demo_out / f"{name}.jsonl") for name in DEMO_GOLDENS}
    failed: set = set()
    problems = []
    for name in DEMO_GOLDENS:
        strategy = name.split("_", 1)[1]
        for i, line in enumerate(golden[name]):
            if i >= len(produced[name]) or produced[name][i] != line:
                failed.add((i, strategy))
        if len(produced[name]) != len(golden[name]):
            problems.append(f"demo {name}: {len(produced[name])} lines, golden has "
                            f"{len(golden[name])}")
    if failed:
        problems.append(f"demo outputs differ from the golden files in {len(failed)} selections")
    tests = max(len(golden["selections_scoi"]), len(golden["selections_random"]))
    tally.add(2 * tests, failed, problems)


def expected_inputs(inputs: Path, max_tokens: int) -> tuple[set[int], list[str]]:
    """Ids that survive the length filter, and the test sources, from the raw files.

    Generated tokens are separated by single spaces and contain no inner
    punctuation, so the whitespace split equals the program's tokenizer.
    """
    with open(inputs / "corpus.src", encoding="utf-8") as fh:
        kept = {i for i, line in enumerate(fh) if len(line.split()) <= max_tokens}
    with open(inputs / "test.src", encoding="utf-8") as fh:
        tests = [line.rstrip("\n") for line in fh]
    return kept, tests


def check_selections(out_dir: Path, strategies, k: int, kept: set[int], tests: list[str],
                     tally: Tally) -> dict:
    """Check every selection record and prompt; returns output digests and counters."""
    failed: set = set()
    problems: list[str] = []
    digests: dict[str, str] = {}
    counters = {"commits": 0, "restarts": 0, "pool_exhausted": 0, "bm25_fallback": 0,
                "dpp_jitter": 0}
    for strategy in strategies:
        sel_path = out_dir / f"selections_{strategy}.jsonl"
        prompt_path = out_dir / f"prompts_{strategy}.jsonl"
        if not (sel_path.is_file() and prompt_path.is_file()):
            failed.update((i, strategy) for i in range(len(tests)))
            problems.append(f"{strategy}: output files missing")
            continue
        digests[sel_path.name] = sha256_file(sel_path)
        digests[prompt_path.name] = sha256_file(prompt_path)
        records = [json.loads(line) for line in _lines(sel_path)]
        prompts = [json.loads(line) for line in _lines(prompt_path)]
        for i, source in enumerate(tests):
            reason = None
            if i >= len(records) or i >= len(prompts):
                reason = "record missing"
            else:
                rec, prompt = records[i], prompts[i]
                selected = rec.get("selected", [])
                flags = rec.get("flags", {})
                if rec.get("test_id") != i or rec.get("strategy") != strategy:
                    reason = f"record {i} is test {rec.get('test_id')} / {rec.get('strategy')}"
                elif len(set(selected)) != len(selected) or not set(selected) <= kept:
                    reason = "repeated ids or ids outside the filtered corpus"
                elif len(selected) != k and not (flags.get("pool_exhausted")
                                                 and len(selected) < k):
                    reason = f"{len(selected)} ids selected, k = {k}"
                elif prompt.get("test_id") != i or prompt.get("strategy") != strategy:
                    reason = "prompt record out of order"
                elif not prompt.get("prompt", "").endswith(
                        f"source sentence: {source}\ntarget sentence:"):
                    reason = "prompt does not end on the test's open target line"
                elif prompt["prompt"].count("\n###\n") != len(selected):
                    reason = "prompt example count differs from the selection"
                else:
                    counters["pool_exhausted"] += bool(flags.get("pool_exhausted"))
                    counters["bm25_fallback"] += bool(flags.get("bm25_fallback"))
                    counters["dpp_jitter"] += bool(flags.get("jitter"))
                    for step in rec.get("steps", []):
                        counters["commits"] += step.get("action") == "commit"
                        counters["restarts"] += step.get("action") == "restart"
            if reason is not None:
                failed.add((i, strategy))
                if len(problems) < 20:
                    problems.append(f"{strategy} test {i}: {reason}")
        if len(records) > len(tests):
            failed.update((i, strategy) for i in range(len(tests)))
            problems.append(f"{strategy}: {len(records)} records for {len(tests)} test inputs")
    tally.add(len(tests) * len(strategies), failed, problems)
    return {"digests": digests, "counters": counters}


def compare_digests(reference: dict, digests: dict, n_tests: int, label: str,
                    tally: Tally) -> None:
    """Outputs of one workload and seed must be byte-identical across runs.

    A differing file fails every selection of its strategy; these failures
    are added to those of the run that produced ``digests``.
    """
    strategies = set()
    for name, digest in digests.items():
        if name in reference and reference[name] != digest:
            strategies.add(name.split("_", 1)[1].rsplit(".", 1)[0])
    if strategies:
        tally.failed += n_tests * len(strategies)
        tally.note(f"{label}: outputs differ for {', '.join(sorted(strategies))}")
