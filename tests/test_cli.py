import builtins
import concurrent.futures
import hashlib
import io
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import scoi.cli
import scoi.conllu
import scoi.corpus
import scoi.coverage
import scoi.manifest
import scoi.retrieval
import scoi.selection
import scoi.treepoly
from scoi.cli import _config_from_args, build_parser, main
from scoi.config import INPUT_KEYS, RunConfig, load_config
from scoi.manifest import read_manifest, sha256_file
from scoi.selection import STRATEGIES

from conftest import perfbench_gen, write_poly_items

REPO = Path(__file__).resolve().parent.parent
DEMO_CFG = REPO / "data" / "demo" / "demo.cfg"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """The demo build outputs only; no test writes selections here."""
    out = tmp_path_factory.mktemp("demo-out")
    assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
    return out


@pytest.fixture(scope="module")
def selected(built, tmp_path_factory):
    """A copy of ``built`` after one serial demo ``select`` (strategy = all)."""
    out = tmp_path_factory.mktemp("demo-selected") / "out"
    shutil.copytree(built, out)
    assert run("select", "--config", DEMO_CFG, "--out-dir", out) == 0
    return out


def spy_tree_stages(monkeypatch) -> list:
    """The build stage running at each ``DependencyTree`` construction, in order."""
    stages, running = [], [None]
    run_stage, init = scoi.cli._run_stage, scoi.treepoly.DependencyTree.__init__

    def spy_run_stage(manifest, previous, name, *args):
        running[0] = name
        try:
            return run_stage(manifest, previous, name, *args)
        finally:
            running[0] = None

    def spy_init(self, *args, **kwargs):
        stages.append(running[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(scoi.cli, "_run_stage", spy_run_stage)
    monkeypatch.setattr(scoi.treepoly.DependencyTree, "__init__", spy_init)
    return stages


class TestBuild:
    def test_caches_and_manifest(self, built):
        for name in ("corpus.bin", "test.bin", "corpus.poly.bin", "test.poly.bin"):
            assert (built / name).is_file()
        assert not (built / "bm25.idx").exists()
        manifest = read_manifest(built / "build-manifest.json")
        assert manifest is not None
        assert set(manifest["stages"]) == {"corpus", "polynomials"}
        for stage in manifest["stages"].values():
            assert stage["outputs"]

    def test_rerun_skips_all_stages(self, built, capsys):
        assert run("build", "--config", DEMO_CFG, "--out-dir", built) == 0
        out = capsys.readouterr().out
        assert out.count("skipped") == 2
        manifest = read_manifest(built / "build-manifest.json")
        assert all(stage["skipped"] for stage in manifest["stages"].values())

    def test_cold_build_matches_the_frozen_cache_digests(self, tmp_path):
        # scripts/freeze_demo_goldens.py writes these; every cache byte is
        # pinned, and so is the derived index, as save_index writes it.
        frozen = json.loads((FIXTURES / "demo_cache_digests.json").read_text(encoding="utf-8"))
        out = tmp_path / "cold"
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        index_path = tmp_path / "bm25.idx"
        scoi.retrieval.save_index(index_path, scoi.cli._load_built(out).index)
        pinned = [*scoi.cli._cache_paths(out).values(), index_path]
        assert {p.name: sha256_file(p) for p in pinned} == frozen

    def test_build_makes_no_token_bag(self, tmp_path, monkeypatch):
        bags = []
        real_bag = scoi.corpus.TokenBag

        class SpyBag(real_bag):
            @classmethod
            def from_tokens(cls, tokens):
                bags.append(tuple(tokens))
                return real_bag.from_tokens(tokens)

        monkeypatch.setattr(scoi.corpus, "TokenBag", SpyBag)
        assert run("build", "--config", DEMO_CFG, "--out-dir", tmp_path / "out") == 0
        assert bags == []

    def test_index_stage_of_an_older_build_is_dropped_unread(
        self, built, selected, tmp_path, capsys, monkeypatch
    ):
        # Older builds wrote bm25.idx in a third, "index" stage.  The file is
        # left in place and never read, even when it is garbage.
        out = tmp_path / "older"
        shutil.copytree(built, out)
        path = out / "build-manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        frozen = json.loads((FIXTURES / "demo_cache_digests.json").read_text(encoding="utf-8"))
        manifest["stages"]["index"] = {
            "inputs": {"corpus_cache": frozen["corpus.bin"]}, "outputs": {"index": frozen["bm25.idx"]},
            "seconds": 0.01, "skipped": False,
        }
        path.write_text(json.dumps(manifest), encoding="utf-8")
        (out / "bm25.idx").write_bytes(b"\xffgarbage\n")
        real_open = open
        opened = []

        def spy_open(file, *args, **kwargs):
            opened.append(Path(file).name if isinstance(file, (str, os.PathLike)) else file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy_open)
        capsys.readouterr()
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        assert capsys.readouterr().out.splitlines() == [
            "corpus: skipped (inputs unchanged)", "polynomials: skipped (inputs unchanged)",
        ]
        assert set(read_manifest(path)["stages"]) == {"corpus", "polynomials"}
        assert run("select", "--config", DEMO_CFG, "--out-dir", out) == 0
        for strategy in STRATEGIES:
            for name in (f"selections_{strategy}.jsonl", f"prompts_{strategy}.jsonl"):
                assert (out / name).read_bytes() == (selected / name).read_bytes()
        assert "corpus.bin" in opened and "bm25.idx" not in opened
        assert (out / "bm25.idx").read_bytes() == b"\xffgarbage\n"

    def test_polynomial_stage_builds_no_tree(self, built, tmp_path, monkeypatch):
        # The stage reads the tree columns that ingest kept, and checks none
        # of them again.
        stages = spy_tree_stages(monkeypatch)
        out = tmp_path / "cold"
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        assert "polynomials" not in stages
        for path in scoi.cli._cache_paths(built).values():
            assert sha256_file(out / path.name) == sha256_file(path)

    def test_double_build_digests_stable(self, tmp_path, built):
        other = tmp_path / "again"
        assert run("build", "--config", DEMO_CFG, "--out-dir", other) == 0
        m1 = read_manifest(built / "build-manifest.json")
        m2 = read_manifest(other / "build-manifest.json")
        for stage in ("corpus", "polynomials"):
            assert m1["stages"][stage]["outputs"] == m2["stages"][stage]["outputs"]

    @pytest.mark.parametrize(
        "deleted, rerun, reads",
        [
            (["corpus.poly.bin"], ["polynomials"], ["corpus.bin", "test.bin"]),
            (["test.poly.bin"], ["polynomials"], ["corpus.bin", "test.bin"]),
            (["corpus.bin", "corpus.poly.bin"], ["corpus", "polynomials"], []),
            (["test.bin"], ["corpus"], []),
        ],
    )
    def test_partial_rebuild_reruns_only_stale_stages(
        self, built, tmp_path, capsys, monkeypatch, deleted, rerun, reads
    ):
        out = tmp_path / "partial"
        shutil.copytree(built, out)
        for name in deleted:
            (out / name).unlink()
        read = scoi.cli.read_corpus_columns
        calls = []
        monkeypatch.setattr(
            scoi.cli, "read_corpus_columns",
            lambda path: calls.append(Path(path).name) or read(path),
        )
        tree_stages = spy_tree_stages(monkeypatch)
        capsys.readouterr()
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        # The polynomial stage takes the trees as columns, from ingest or
        # from the corpus caches, and builds none.
        assert "polynomials" not in tree_stages
        lines = capsys.readouterr().out.splitlines()
        stages = ("corpus", "polynomials")
        assert [line.split(":")[0] for line in lines] == list(stages)
        for stage, line in zip(stages, lines):
            assert (line == f"{stage}: skipped (inputs unchanged)") == (stage not in rerun)
        # A skipped corpus stage reloads each corpus cache at most once.
        assert calls == reads
        before = read_manifest(built / "build-manifest.json")["stages"]
        after = read_manifest(out / "build-manifest.json")["stages"]
        for stage in stages:
            assert after[stage]["inputs"] == before[stage]["inputs"]
            assert after[stage]["outputs"] == before[stage]["outputs"]
            assert after[stage]["skipped"] == (stage not in rerun)
        for path in scoi.cli._cache_paths(built).values():
            assert sha256_file(out / path.name) == sha256_file(path)

    def test_old_corpus_cache_version_reruns_the_corpus_stage(self, built, tmp_path):
        out = tmp_path / "old"
        shutil.copytree(built, out)
        path = out / "build-manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        inputs = manifest["stages"]["corpus"]["inputs"]
        assert inputs["corpus_cache_version"] == str(scoi.cli.CORPUS_CACHE_VERSION)
        inputs["corpus_cache_version"] = "1"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        # The rewritten caches are byte-identical, so later stages stay current.
        stages = read_manifest(path)["stages"]
        assert {name: stage["skipped"] for name, stage in stages.items()} == {
            "corpus": False, "polynomials": True,
        }

    def test_version_1_build_directory_reruns_every_stage(self, built, tmp_path):
        # Version 1 wrote corpus.jsonl / test.jsonl and recorded no version
        # input; those files stay behind and are never read.
        out = tmp_path / "old"
        shutil.copytree(built, out)
        path = out / "build-manifest.json"
        stages = json.loads(path.read_text(encoding="utf-8"))["stages"]
        del stages["corpus"]["inputs"]["corpus_cache_version"]
        for key, name in (("corpus_cache", "corpus"), ("test_cache", "test")):
            (out / f"{name}.bin").unlink()
            (out / f"{name}.jsonl").write_bytes(b"\xffnot a cache\n")
            stages["corpus"]["outputs"][key] = sha256_file(out / f"{name}.jsonl")
            stages["polynomials"]["inputs"][key] = stages["corpus"]["outputs"][key]
        path.write_text(json.dumps({**read_manifest(path), "stages": stages}), encoding="utf-8")
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        stages = read_manifest(path)["stages"]
        assert not any(stage["skipped"] for stage in stages.values())
        for cache in scoi.cli._cache_paths(built).values():
            assert sha256_file(out / cache.name) == sha256_file(cache)
        assert run("select", "--config", DEMO_CFG, "--out-dir", out, "--strategy", "scoi") == 0

    def test_old_polynomial_cache_version_reruns_only_polynomials(self, built, tmp_path, capsys):
        out = tmp_path / "old"
        shutil.copytree(built, out)
        path = out / "build-manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        inputs = manifest["stages"]["polynomials"]["inputs"]
        assert inputs["poly_cache_version"] == str(scoi.cli.POLY_CACHE_VERSION)
        inputs["poly_cache_version"] = "1"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        stages = read_manifest(path)["stages"]
        assert {name: stage["skipped"] for name, stage in stages.items()} == {
            "corpus": True, "polynomials": False,
        }
        assert stages["polynomials"]["inputs"]["poly_cache_version"] == str(
            scoi.cli.POLY_CACHE_VERSION
        )
        assert run("select", "--config", DEMO_CFG, "--out-dir", out, "--strategy", "scoi") == 0

    def test_version_2_polynomial_caches_rerun_only_polynomials(self, built, tmp_path, capsys):
        # A build directory of version 2, dense rows and int64 counts, as
        # that version wrote them and recorded them in the build manifest.
        out = tmp_path / "v2"
        shutil.copytree(built, out)
        path = out / "build-manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for key, name in (("corpus_poly", "corpus.poly.bin"), ("test_poly", "test.poly.bin")):
            header, segments = _poly_segments((out / name).read_bytes())
            header = json.loads(header)
            header["version"] = 2
            rows = segments["table"][segments["terms"]]
            arrays = (rows, segments["counts"].astype(np.int64), segments["offsets"],
                      segments["ids"])
            (out / name).write_bytes(_cache_bytes(json.dumps(header).encode() + b"\n", arrays))
            manifest["stages"]["polynomials"]["outputs"][key] = sha256_file(out / name)
        manifest["stages"]["polynomials"]["inputs"]["poly_cache_version"] = "2"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        poly_path = out / "corpus.poly.bin"
        assert run("select", "--config", DEMO_CFG, "--out-dir", out, "--strategy", "scoi") == 2
        assert capsys.readouterr().err == (
            f"data error: {poly_path}: unsupported polynomial cache version 2\n"
        )
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        stages = read_manifest(path)["stages"]
        assert {name: stage["skipped"] for name, stage in stages.items()} == {
            "corpus": True, "polynomials": False,
        }
        for cache in scoi.cli._cache_paths(built).values():
            assert sha256_file(out / cache.name) == sha256_file(cache)
        assert run("select", "--config", DEMO_CFG, "--out-dir", out, "--strategy", "scoi") == 0

    def test_build_with_workers_starts_no_process_pool(
        self, built, selected, tmp_path, monkeypatch
    ):
        """``workers`` is accepted and changes nothing: build and select stay serial."""
        def refuse(*args, **kwargs):
            raise RuntimeError("started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "scoi" and hasattr(module, "ProcessPoolExecutor"):
                monkeypatch.setattr(module, "ProcessPoolExecutor", refuse)
        out = tmp_path / "out"
        assert run("build", "--config", DEMO_CFG, "--out-dir", out, "--workers", "2") == 0
        for path in scoi.cli._cache_paths(built).values():
            assert sha256_file(out / path.name) == sha256_file(path)
        assert run("select", "--config", DEMO_CFG, "--out-dir", out, "--workers", "2") == 0
        for strategy in STRATEGIES:
            for name in (f"selections_{strategy}.jsonl", f"prompts_{strategy}.jsonl"):
                assert (out / name).read_bytes() == (selected / name).read_bytes()

    def test_missing_conllu_exits_1_without_partial_caches(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            "build",
            "--config", DEMO_CFG,
            "--corpus-conllu", tmp_path / "nope.conllu",
            "--out-dir", out,
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err
        assert not (out / "corpus.bin").exists()

    def test_malformed_parse_exits_2_with_context(self, tmp_path, capsys):
        bad = tmp_path / "bad.conllu"
        bad.write_text(
            "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n\n",
            encoding="utf-8",
        )
        src = tmp_path / "one.src"
        src.write_text("a b\n", encoding="utf-8")
        tgt = tmp_path / "one.tgt"
        tgt.write_text("b a\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            "build",
            "--corpus-source", src, "--corpus-target", tgt, "--corpus-conllu", bad,
            "--test-source", src, "--test-conllu", bad,
            "--out-dir", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "HEAD=0" in err and "lines" in err
        assert not (out / "corpus.bin").exists()

    def test_duplicate_token_id_exits_2_naming_the_line(self, tmp_path, capsys):
        paths = _write_tiny_corpus(tmp_path, ["a b", "c d"], ["a c"])
        conllu = paths["corpus_conllu"].read_text(encoding="utf-8").replace("\n2\t", "\n1\t", 1)
        paths["corpus_conllu"].write_text(conllu, encoding="utf-8")
        out = tmp_path / "out"
        args = ["build", "--out-dir", out] + [
            arg for key, path in paths.items() for arg in (f"--{key.replace('_', '-')}", path)
        ]
        assert run(*args) == 2
        assert capsys.readouterr().err == (
            f"data error: {paths['corpus_conllu']}: line 2: duplicate token ID 1\n"
        )
        assert not (out / "corpus.bin").exists()

    @pytest.mark.parametrize("key", ["corpus_conllu", "corpus_source"])
    def test_non_utf8_input_exits_2_naming_file_and_line(self, tmp_path, capsys, key):
        paths = _write_tiny_corpus(tmp_path, ["a b", "c d"], ["a c"])
        data = paths[key].read_bytes()
        line_2 = data.index(b"\n") + 1
        paths[key].write_bytes(data[:line_2] + b"\xff" + data[line_2:])
        out = tmp_path / "out"
        args = ["build", "--out-dir", out] + [
            arg for name, path in paths.items() for arg in (f"--{name.replace('_', '-')}", path)
        ]
        assert run(*args) == 2
        assert capsys.readouterr().err == f"data error: {paths[key]}: line 2: not UTF-8\n"
        assert not (out / "corpus.bin").exists()

    @pytest.mark.parametrize("line", ["", " \t　  "], ids=["empty", "whitespace"])
    @pytest.mark.parametrize("key", ["corpus_source", "test_source"])
    def test_line_without_tokens_exits_2_naming_file_and_line(self, tmp_path, capsys, key, line):
        paths = _write_tiny_corpus(tmp_path, ["a b", "c d", "e f"], ["a c", "b d"])
        lines = paths[key].read_text(encoding="utf-8").split("\n")
        lines[1] = line
        paths[key].write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        args = ["build", "--out-dir", out] + [
            arg for name, path in paths.items() for arg in (f"--{name.replace('_', '-')}", path)
        ]
        assert run(*args) == 2
        assert capsys.readouterr().err == f"data error: {paths[key]}: line 2: no tokens\n"
        assert not (out / "corpus.bin").exists()

    def test_corpus_stage_builds_no_record(self, tmp_path, monkeypatch):
        records = []
        real_init = scoi.corpus.ExampleRecord.__init__

        def init(self, *args, **kwargs):
            records.append(args[0])
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(scoi.corpus.ExampleRecord, "__init__", init)
        out = tmp_path / "out"
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        assert records == []
        assert len(scoi.corpus.read_corpus_columns(out / "corpus.bin").ids) > 0

    def test_rebuild_removes_temp_files_of_dead_writers_only(self, built, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(built, out)
        dead = subprocess.Popen([sys.executable, "-c", ""])
        assert dead.wait(timeout=60) == 0
        live = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                                stdin=subprocess.PIPE)
        try:
            stale = [f".{name}.{dead.pid}.tmp"
                     for name in ("corpus.bin", "build-manifest.json", "prompts_dpp.jsonl")]
            kept = [f".corpus.bin.{live.pid}.tmp", f".notes.txt.{dead.pid}.tmp",
                    f".corpus.bin.0{dead.pid}.tmp", ".test.bin.x.tmp"]
            for name in stale + kept:
                (out / name).write_bytes(b"partial")
            assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
            assert live.poll() is None
        finally:
            live.stdin.close()
            live.wait(timeout=60)
        assert sorted(p.name for p in out.glob(".*.tmp")) == sorted(kept)
        assert capsys.readouterr().out.count("skipped") == 2

    def test_usage_error_exits_1(self, capsys):
        assert run("select", "--config", DEMO_CFG, "--strategy", "bogus") == 1


class TestBuildHashing:
    @pytest.mark.parametrize("rebuild", [False, True], ids=["cold", "no-op"])
    def test_each_file_is_hashed_once(self, built, tmp_path, monkeypatch, rebuild):
        out = tmp_path / "out"
        if rebuild:
            shutil.copytree(built, out)
        real = scoi.manifest.sha256_file
        hashed = []

        def spy(path):
            hashed.append(Path(path).resolve())
            return real(path)

        monkeypatch.setattr(scoi.cli, "sha256_file", spy)
        monkeypatch.setattr(scoi.manifest, "sha256_file", spy)
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        config = load_config(DEMO_CFG)
        inputs = {Path(getattr(config, key)).resolve() for key in INPUT_KEYS}
        caches = {p.resolve() for p in scoi.cli._cache_paths(out).values()}
        assert Counter(hashed) == Counter(inputs | caches)
        manifest = read_manifest(out / "build-manifest.json")
        assert all(stage["skipped"] == rebuild for stage in manifest["stages"].values())


class TestSelect:
    def test_select_before_build_is_instructive(self, tmp_path, capsys):
        code = run("select", "--config", DEMO_CFG, "--out-dir", tmp_path / "empty")
        assert code == 1
        assert "build" in capsys.readouterr().err

    def test_all_strategies_write_files(self, selected):
        for strategy in ("scoi", "syntax-only", "word-only", "topk-poly", "dpp",
                         "bm25-passthrough", "random"):
            sel = selected / f"selections_{strategy}.jsonl"
            prompts = selected / f"prompts_{strategy}.jsonl"
            assert sel.is_file() and prompts.is_file()
            lines = sel.read_text(encoding="utf-8").splitlines()
            assert len(lines) == 8
            for line in lines:
                record = json.loads(line)
                assert record["strategy"] == strategy
                assert len(record["selected"]) == 4
        manifest = read_manifest(selected / "select-manifest.json")
        assert manifest and "select" in manifest["stages"]

    def test_selection_matches_frozen_golden(self, selected):
        golden = FIXTURES / "demo_selections_scoi.jsonl"
        assert (selected / "selections_scoi.jsonl").read_bytes() == golden.read_bytes()

    def test_random_strategy_matches_frozen_golden(self, selected):
        golden = FIXTURES / "demo_selections_random.jsonl"
        assert (selected / "selections_random.jsonl").read_bytes() == golden.read_bytes()

    def test_prompts_match_frozen_golden(self, selected):
        golden = FIXTURES / "demo_prompts_scoi.jsonl"
        assert (selected / "prompts_scoi.jsonl").read_bytes() == golden.read_bytes()

    def test_worker_count_does_not_change_output(self, built, selected, tmp_path):
        out = tmp_path / "par"
        shutil.copytree(built, out)
        assert run("select", "--config", DEMO_CFG, "--out-dir", out, "--workers", "2") == 0
        for strategy in ("scoi", "dpp", "random"):
            assert (out / f"selections_{strategy}.jsonl").read_bytes() == (
                selected / f"selections_{strategy}.jsonl"
            ).read_bytes()

    def test_parallel_build_matches_serial_digests(self, built, tmp_path):
        out = tmp_path / "par-build"
        assert run("build", "--config", DEMO_CFG, "--out-dir", out, "--workers", "2") == 0
        for path in scoi.cli._cache_paths(built).values():
            assert sha256_file(out / path.name) == sha256_file(path)

    def test_measure_and_order_flags_flow_through(self, built, tmp_path):
        out = tmp_path / "cosine"
        shutil.copytree(built, out)
        assert run(
            "select", "--config", DEMO_CFG, "--out-dir", out,
            "--strategy", "scoi", "--measure", "cosine", "--order", "word-first",
        ) == 0
        records = [
            json.loads(line)
            for line in (out / "selections_scoi.jsonl").read_text().splitlines()
        ]
        assert len(records) == 8
        first_modes = [r["steps"][0]["mode"] for r in records]
        assert set(first_modes) == {"word"}

    def test_small_pool_sets_fallback_flags(self, built, tmp_path):
        out = tmp_path / "tiny"
        shutil.copytree(built, out)
        assert run(
            "select", "--config", DEMO_CFG, "--out-dir", out, "--k", "4",
            "--pool-size", "4", "--strategy", "scoi",
        ) == 0
        records = [
            json.loads(line)
            for line in (out / "selections_scoi.jsonl").read_text().splitlines()
        ]
        assert all(len(r["selected"]) == 4 for r in records)


def _null_header_key(key):
    def mutate(lines):
        return [json.dumps({**json.loads(lines[0]), key: None}).encode() + b"\n", *lines[1:]]
    return mutate


def _reverse_header_labels(lines):
    header = json.loads(lines[0])
    header["labels"].reverse()
    return [json.dumps(header).encode() + b"\n", *lines[1:]]


def _edit_segments(edit):
    """A mutation of a corpus cache's lines: ``edit(segments)`` changes its
    arrays, by name, in place."""
    def mutate(lines):
        fh = io.BytesIO(b"".join(lines))
        header = fh.readline()
        segments = {name: np.load(fh) for name in scoi.corpus._SEGMENTS}
        edit(segments)
        out = io.BytesIO()
        out.write(header)
        for array in segments.values():
            np.save(out, array)
        return [out.getvalue()]
    return mutate


POLY_SEGMENTS = ("table", "terms", "counts", "offsets", "ids")


def _poly_segments(data: bytes) -> tuple[bytes, dict[str, np.ndarray]]:
    """A polynomial cache's header line and its segments, by name."""
    fh = io.BytesIO(data)
    header = fh.readline()
    return header, {name: np.load(fh) for name in POLY_SEGMENTS}


def _cache_bytes(header: bytes, arrays) -> bytes:
    out = io.BytesIO()
    out.write(header)
    for array in arrays:
        np.save(out, array)
    return out.getvalue()


def _edit_poly_segments(edit):
    """A mutation of a polynomial cache's lines: ``edit(segments)`` changes
    its arrays, by name, in place."""
    def mutate(lines):
        header, segments = _poly_segments(b"".join(lines))
        edit(segments)
        return [_cache_bytes(header, segments.values())]
    return mutate


def _with_first_tree(labels, parents):
    """A corpus cache mutation that replaces record 0's tree."""
    def edit(segments):
        end = segments["node_offsets"][1]
        for name, nodes in (("labels", labels), ("parents", parents)):
            segments[name] = np.concatenate([np.array(nodes, "<i4"), segments[name][end:]])
        segments["node_offsets"] = np.concatenate(
            [[0], segments["node_offsets"][1:] - end + len(labels)]
        )
    return _edit_segments(edit)


def _first_record_without_tokens(segments):
    end = segments["token_offsets"][1]
    segments["tokens"] = segments["tokens"][end:]
    segments["token_offsets"] = np.concatenate([[0], segments["token_offsets"][1:] - end])


def _no_records(segments):
    for name, array in segments.items():
        segments[name] = array[:1] * 0 if name.endswith("offsets") else array[:0]


# (cache file, edit of its lines, message after "data error: <path>: ").
CORRUPTIONS = [
    pytest.param(
        "corpus.bin", lambda ls: [b"garbage\n", *ls[1:]], "not a corpus cache",
        id="corpus-header-not-json",
    ),
    pytest.param(
        "corpus.bin", _null_header_key("labels"), "header has no labels list",
        id="corpus-header-without-labels",
    ),
    pytest.param(
        "corpus.bin", lambda ls: [ls[0], ls[1][:40]], "corrupt array segment",
        id="corpus-segment-truncated",
    ),
    pytest.param(
        "corpus.bin", lambda ls: [ls[0], ls[1].replace(b"{'descr'", b"''descr'", 1), *ls[2:]],
        "corrupt array segment (ids: ", id="corpus-segment-header-reaches-the-tokenizer",
    ),
    pytest.param(
        "test.bin", lambda ls: [ls[0], ls[1].replace(b"'<i8'", b"'7i8'", 1), *ls[2:]],
        "corrupt array segment (ids: ", id="test-segment-of-sub-arrays",
    ),
    pytest.param(
        "corpus.bin", _edit_segments(lambda s: s["source"].__setitem__(0, 0xFF)),
        "record 0: source is not UTF-8", id="corpus-record-not-utf8",
    ),
    pytest.param(
        "corpus.bin", _edit_segments(lambda s: s.update(ids=s["ids"][1:])),
        "source offsets do not match the 199 record ids", id="corpus-ids-short",
    ),
    pytest.param(
        "corpus.bin", _with_first_tree([0, 0], [-1, -1]),
        "record 0: expected exactly one root, found 2", id="corpus-tree-two-roots",
    ),
    pytest.param(
        "corpus.bin", _with_first_tree([0, 0], [-1, 2]),
        "record 0: node 1 has out-of-range parent 2", id="corpus-tree-parent-out-of-range",
    ),
    pytest.param(
        "corpus.bin", _with_first_tree([0, 0, 0], [-1, 2, 1]),
        "record 0: parent relation contains a cycle", id="corpus-tree-cycle",
    ),
    pytest.param(
        "corpus.bin", _edit_segments(lambda s: s.update(labels=s["labels"].astype(float))),
        "segment labels is not a one-dimensional <i4 array", id="corpus-labels-not-int32",
    ),
    pytest.param(
        "test.bin", _null_header_key("tokens"), "header has no tokens list",
        id="test-header-without-tokens",
    ),
    pytest.param(
        "test.bin", _edit_segments(lambda s: s["tokens"].__setitem__(0, 10_000)),
        "record 0: token id 10000 outside the token list of size", id="test-token-id-out-of-range",
    ),
    pytest.param(
        "corpus.poly.bin", _null_header_key("labels"), "header has no labels list",
        id="poly-header-without-labels",
    ),
    pytest.param(
        "corpus.poly.bin", lambda ls: [ls[0], ls[1][:40]], "corrupt array segment",
        id="poly-segment-truncated",
    ),
    pytest.param(
        "test.poly.bin", _reverse_header_labels,
        "label vocabulary differs from the corpus cache's", id="test-poly-labels-reversed",
    ),
]


def _corrupt(built, tmp_path, name, mutate) -> tuple[Path, Path]:
    """A copy of ``built`` whose cache ``name`` is mutated; (out dir, cache path)."""
    out = tmp_path / "corrupt"
    shutil.copytree(built, out)
    path = out / name
    path.write_bytes(b"".join(mutate(path.read_bytes().splitlines(keepends=True))))
    return out, path


class TestCorruptCache:
    def test_label_outside_vocabulary_exits_2_naming_record(self, built, tmp_path, capsys):
        # A term row reaching label 99 is 100 labels wide, a width no record
        # of this vocabulary has, so the whole file is refused.
        out = tmp_path / "corrupt"
        shutil.copytree(built, out)
        poly_path = out / "corpus.poly.bin"
        header, segments = _poly_segments(poly_path.read_bytes())
        table = segments["table"]
        n_labels = len(json.loads(header)["labels"])
        assert table.shape[1] == n_labels < 99
        table = np.pad(table, ((0, 0), (0, 100 - n_labels)))
        table[0, 99] = 1
        segments["table"] = table
        poly_path.write_bytes(_cache_bytes(header, segments.values()))
        assert run("select", "--config", DEMO_CFG, "--out-dir", out, "--strategy", "scoi") == 2
        err = capsys.readouterr().err
        shape = f"({len(table)}, 100)"
        assert f"{poly_path}: term rows of shape {shape} for a {n_labels}-label vocabulary" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["select", "inspect"])
    @pytest.mark.parametrize("check", ["term-outside-table", "terms-not-rising",
                                       "table-not-canonical"])
    def test_bad_term_table_exits_2_naming_record(self, built, tmp_path, capsys, command, check):
        _, segments = _poly_segments((built / "corpus.poly.bin").read_bytes())
        terms, offsets, ids = segments["terms"], segments["offsets"], segments["ids"]
        # The first record of at least two terms, and its first entry.
        i = int(np.flatnonzero(np.diff(offsets) >= 2)[0])
        a = int(offsets[i])
        if check == "term-outside-table":
            size = len(segments["table"])

            def edit(s):
                s["terms"][a + 1] = size

            reason = f"term id {size} outside the table of {size} term rows"
        elif check == "terms-not-rising":
            def edit(s):
                s["terms"][a + 1] = terms[a]

            reason = f"term id {terms[a]} is not above the term id {terms[a]} before it"
        else:
            # Rows t and t + 1 swap, so row t + 1 sorts below row t.
            t = int(terms[a])

            def edit(s):
                s["table"][[t, t + 1]] = s["table"][[t + 1, t]]

            first = int(np.flatnonzero(terms == t + 1)[0])
            i = int(np.searchsorted(offsets, first, "right")) - 1
            reason = f"term row {t + 1} is not above term row {t} in canonical order"
        out, path = _corrupt(built, tmp_path, "corpus.poly.bin", _edit_poly_segments(edit))
        extra = ["--record", "0"] if command == "inspect" else ["--strategy", "scoi"]
        assert run(command, "--config", DEMO_CFG, "--out-dir", out, *extra) == 2
        assert capsys.readouterr().err == f"data error: {path}: record {ids[i]}: {reason}\n"

    @pytest.mark.parametrize("command", ["select", "inspect"])
    def test_tree_label_outside_vocabulary_exits_2(self, built, tmp_path, capsys, command):
        n_labels = len(json.loads((built / "corpus.bin").read_bytes().split(b"\n", 1)[0])["labels"])
        assert n_labels < 99
        edit = _edit_segments(lambda s: s["labels"].__setitem__(0, 99))
        out, path = _corrupt(built, tmp_path, "corpus.bin", edit)
        extra = ["--record", "0"] if command == "inspect" else ["--strategy", "scoi"]
        assert run(command, "--config", DEMO_CFG, "--out-dir", out, *extra) == 2
        err = capsys.readouterr().err
        expected = f"data error: {path}: record 0: label index 99 outside vocabulary of size {n_labels}"
        assert expected in err
        assert "Traceback" not in err

    def test_inspect_null_tree_exits_2(self, built, tmp_path, capsys):
        out, path = _corrupt(built, tmp_path, "corpus.bin", _with_first_tree([], []))
        assert run("inspect", "--config", DEMO_CFG, "--out-dir", out, "--record", "0") == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: record 0: tree must have at least one node" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["select", "inspect"])
    @pytest.mark.parametrize(
        "edit, expected",
        [(_first_record_without_tokens, "record 0: no tokens"), (_no_records, "no records to index")],
        ids=["record-without-tokens", "no-records"],
    )
    def test_unindexable_corpus_exits_2_naming_the_file(
        self, built, tmp_path, capsys, command, edit, expected
    ):
        # The BM25 index is derived from these tokens, so neither case reaches the digest check.
        out, path = _corrupt(built, tmp_path, "corpus.bin", _edit_segments(edit))
        extra = ["--record", "0"] if command == "inspect" else ["--strategy", "scoi"]
        assert run(command, "--config", DEMO_CFG, "--out-dir", out, *extra) == 2
        assert capsys.readouterr().err == f"data error: {path}: {expected}\n"

    @pytest.mark.parametrize("command", ["select", "inspect"])
    def test_ids_out_of_order_exit_2_before_the_digest_check(
        self, built, tmp_path, capsys, command
    ):
        # Records 0 and 1 swap ids in both corpus caches, and the manifest
        # records the new digests, so only the id order is wrong.
        def swap(segments):
            segments["ids"][[0, 1]] = segments["ids"][[1, 0]]

        out, path = _corrupt(built, tmp_path, "corpus.bin", _edit_segments(swap))
        poly_path = out / "corpus.poly.bin"
        vocab, items = scoi.treepoly.read_polynomial_cache(poly_path)
        items[0], items[1] = (items[1][0], items[0][1]), (items[0][0], items[1][1])
        write_poly_items(poly_path, items, vocab)
        manifest_path = out / "build-manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["stages"]["corpus"]["outputs"]["corpus_cache"] = sha256_file(path)
        manifest["stages"]["polynomials"]["outputs"]["corpus_poly"] = sha256_file(poly_path)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        extra = ["--record", "0"] if command == "inspect" else ["--strategy", "scoi"]
        assert run(command, "--config", DEMO_CFG, "--out-dir", out, *extra) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: record 0: id is not above the id 1 before it\n"
        )

    @pytest.mark.parametrize("command", ["select", "inspect"])
    @pytest.mark.parametrize("edit", ["renumber", "drop", "append"])
    def test_poly_ids_differing_from_the_corpus_ids_exit_2_before_the_digest_check(
        self, built, tmp_path, capsys, command, edit
    ):
        # corpus.poly.bin is rewritten with one id changed, one record dropped
        # or one record added, and the manifest records its new digest, so
        # only the join of the two caches is wrong.
        out = tmp_path / "out"
        shutil.copytree(built, out)
        poly_path = out / "corpus.poly.bin"
        vocab, items = scoi.treepoly.read_polynomial_cache(poly_path)
        ids = [rid for rid, _ in items]
        if edit == "renumber":
            items[3] = (ids[-1] + 1000, items[3][1])
            expected = f"record {ids[3]}: not at row 3, as in corpus.bin"
        elif edit == "drop":
            del items[5]
            expected = f"record {ids[5]}: not at row 5, as in corpus.bin"
        else:
            items.append((ids[-1] + 1, items[0][1]))
            expected = f"record {ids[-1] + 1}: not in corpus.bin"
        write_poly_items(poly_path, items, vocab)
        manifest_path = out / "build-manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["stages"]["polynomials"]["outputs"]["corpus_poly"] = sha256_file(poly_path)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        extra = ["--record", str(ids[0])] if command == "inspect" else ["--strategy", "scoi"]
        assert run(command, "--config", DEMO_CFG, "--out-dir", out, *extra) == 2
        assert capsys.readouterr().err == f"data error: {poly_path}: {expected}\n"

    @pytest.mark.parametrize("name, mutate, expected", CORRUPTIONS)
    def test_corrupt_cache_exits_2_with_located_message(
        self, built, tmp_path, capsys, name, mutate, expected
    ):
        out, path = _corrupt(built, tmp_path, name, mutate)
        assert run("select", "--config", DEMO_CFG, "--out-dir", out, "--strategy", "scoi") == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: {expected}" in err
        assert "Traceback" not in err


def _seeded_mutations(data: bytes, rng: random.Random) -> list[tuple[str, bytes]]:
    """Labelled mutated copies of ``data``: two bit flips, two byte sets and
    two truncations at seeded offsets; in a cache, also the first byte of its
    first .npy segment's header dict set to a quote, and four quote or
    bracket bytes set at seeded places in that dict."""
    def put(i: int, value: int) -> bytes:
        return data[:i] + bytes([value]) + data[i + 1:]

    mutations = []
    for _ in range(2):
        i, bit = rng.randrange(len(data)), rng.randrange(8)
        mutations.append((f"bit {bit} of byte {i} flipped", put(i, data[i] ^ (1 << bit))))
        i = rng.randrange(len(data))
        value = rng.choice([v for v in range(256) if v != data[i]])
        mutations.append((f"byte {i} set to {value}", put(i, value)))
        cut = rng.randrange(len(data))
        mutations.append((f"cut to {cut} bytes", data[:cut]))
    magic = data.find(b"\x93NUMPY")
    if magic >= 0:
        start = magic + 10  # magic string, version, header length
        end = start + int.from_bytes(data[start - 2:start], "little")
        mutations.append((f"byte {start} set to a quote", put(start, ord("'"))))
        for _ in range(4):
            i = rng.randrange(start, end)
            value = rng.choice([v for v in b"'\"()[]{}" if v != data[i]])
            mutations.append((f"byte {i} set to {chr(value)}", put(i, value)))
    return mutations


class TestSeededCorruption:
    """Every seeded mutation of a demo cache or of its build manifest makes
    select and inspect exit 2 with a message naming a file of the build and
    no traceback, or exit 0 with the clean run's outputs, which only a
    manifest field that they do not check may do."""

    COMMANDS = {
        "select": ("--strategy", "all"),
        "inspect": ("--record", "0", "--pool", "1,2,3"),
    }

    def outputs(self, out: Path, command: str, stdout: str) -> dict[str, bytes]:
        if command == "inspect":
            return {"stdout": stdout.encode("utf-8")}
        return {p.name: p.read_bytes() for p in sorted(out.glob("*_*.jsonl"))}

    def run_all(self, out: Path, capsys) -> dict[str, tuple[int, str, dict]]:
        done = {}
        for command, extra in self.COMMANDS.items():
            code = run(command, "--config", DEMO_CFG, "--out-dir", out, *extra)
            captured = capsys.readouterr()
            done[command] = code, captured.err, self.outputs(out, command, captured.out)
            for path in out.glob("*_*.jsonl"):
                path.unlink()
        return done

    @pytest.mark.parametrize(
        "name", ["corpus.bin", "test.bin", "corpus.poly.bin", "test.poly.bin",
                 "build-manifest.json"],
    )
    def test_mutation_exits_2_located_or_changes_nothing(self, built, tmp_path, capsys, name):
        out = tmp_path / "out"
        shutil.copytree(built, out)
        clean = self.run_all(out, capsys)
        assert all(code == 0 for code, _, _ in clean.values())
        path = out / name
        original = path.read_bytes()
        rng = random.Random(f"seeded-corruption:{name}")
        for label, mutated in _seeded_mutations(original, rng):
            path.write_bytes(mutated)
            for command, (code, err, outputs) in self.run_all(out, capsys).items():
                where = f"{name}, {label}: {command}"
                assert "Traceback" not in err, where
                if code == 0:
                    assert name == "build-manifest.json", where
                    assert outputs == clean[command][2], where
                else:
                    assert code == 2, where
                    assert re.match(rf"(data )?error: {re.escape(str(out))}/[^ /]+: ", err), where


class TestBuildManifestCheck:
    """select and inspect refuse caches whose digests differ from the build manifest."""

    @pytest.mark.parametrize("command", ["select", "inspect"])
    def test_edited_cache_exits_2_naming_file(self, built, tmp_path, capsys, command):
        # A valid cache with one source letter changed.
        edit = _edit_segments(lambda s: s["source"].__setitem__(0, ord("X")))
        out, path = _corrupt(built, tmp_path, "test.bin", edit)
        extra = ["--record", "0"] if command == "inspect" else ["--strategy", "scoi"]
        assert run(command, "--config", DEMO_CFG, "--out-dir", out, *extra) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: digest differs from build-manifest.json" in err
        assert "Traceback" not in err
        assert not (out / "selections_scoi.jsonl").exists()

    def test_swapped_term_rows_exit_2_on_the_digest(self, built, tmp_path, capsys):
        # Two records of as many terms swap their term ids and counts.  Each
        # stays a well-formed record, so the reader accepts the file and the
        # digest check catches the swap.
        out = tmp_path / "swapped"
        shutil.copytree(built, out)
        path = out / "corpus.poly.bin"
        header, segments = _poly_segments(path.read_bytes())
        offsets = segments["offsets"]
        sizes = np.diff(offsets)
        i = int(np.flatnonzero(sizes >= 2)[0])
        a, b = int(offsets[i]), int(offsets[i + 1])
        terms = segments["terms"]
        j = next(j for j in range(i + 1, len(sizes)) if sizes[j] == sizes[i]
                 and not np.array_equal(terms[offsets[j]:offsets[j + 1]], terms[a:b]))
        c, d = int(offsets[j]), int(offsets[j + 1])
        for name in ("terms", "counts"):
            array = segments[name]
            array[a:b], array[c:d] = array[c:d].copy(), array[a:b].copy()
        data = _cache_bytes(header, segments.values())
        assert data != path.read_bytes()
        path.write_bytes(data)
        assert run("select", "--config", DEMO_CFG, "--out-dir", out, "--strategy", "scoi") == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: digest differs from build-manifest.json" in err
        assert not (out / "selections_scoi.jsonl").exists()

    def test_missing_manifest_is_not_built(self, built, tmp_path, capsys):
        out = tmp_path / "unbuilt"
        shutil.copytree(built, out)
        (out / "build-manifest.json").unlink()
        assert run("select", "--config", DEMO_CFG, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "caches not built yet" in err and "build-manifest.json" in err

    def test_unreadable_manifest_exits_2(self, built, tmp_path, capsys):
        out = tmp_path / "garbled"
        shutil.copytree(built, out)
        path = out / "build-manifest.json"
        path.write_text("garbage\n", encoding="utf-8")
        assert run("select", "--config", DEMO_CFG, "--out-dir", out) == 2
        assert f"data error: {path}: not a build manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "build"])
    @pytest.mark.parametrize(
        "content",
        [
            b"[]\n",
            b"\xff\xfe",
            json.dumps({"format": "scoi-manifest", "version": 1, "stages": []}).encode(),
        ],
        ids=["not-an-object", "not-utf8", "stages-not-an-object"],
    )
    def test_malformed_manifest_is_refused_or_rebuilt(
        self, built, tmp_path, capsys, command, content
    ):
        out = tmp_path / "malformed"
        shutil.copytree(built, out)
        path = out / "build-manifest.json"
        path.write_bytes(content)
        capsys.readouterr()
        if command == "select":
            assert run("select", "--config", DEMO_CFG, "--out-dir", out) == 2
            err = capsys.readouterr().err
            assert f"data error: {path}: not a build manifest" in err
            assert "Traceback" not in err
            return
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        assert "skipped" not in capsys.readouterr().out
        stages = read_manifest(path)["stages"]
        assert not any(stage["skipped"] for stage in stages.values())
        for cache in scoi.cli._cache_paths(built).values():
            assert sha256_file(out / cache.name) == sha256_file(cache)

    def test_select_hashes_each_cache_once(self, built, tmp_path, monkeypatch):
        out = tmp_path / "out"
        shutil.copytree(built, out)
        real = scoi.cli.sha256_file
        hashed = []

        def spy(path):
            hashed.append(Path(path).resolve())
            return real(path)

        monkeypatch.setattr(scoi.cli, "sha256_file", spy)
        assert run("select", "--config", DEMO_CFG, "--out-dir", out, "--strategy", "scoi") == 0
        caches = [p.resolve() for p in scoi.cli._cache_paths(out).values()]
        assert [p for p in hashed if p in caches] == caches
        built_stages = read_manifest(out / "build-manifest.json")["stages"].values()
        recorded = {k: v for stage in built_stages for k, v in stage["outputs"].items()}
        select_stage = read_manifest(out / "select-manifest.json")["stages"]["select"]
        assert select_stage["inputs"] == recorded


class _FailingFile:
    """A real file whose writes fail with OSError once ``budget`` bytes are written."""

    def __init__(self, fh, budget: int):
        self._fh = fh
        self._budget = budget

    def write(self, data):
        # A text file's budget counts characters and a binary file's bytes,
        # whatever the buffer: len() counts a numpy array's rows.
        data = data if isinstance(data, str) else memoryview(data).cast("B")
        if len(data) >= self._budget:
            self._fh.write(data[: self._budget])
            raise OSError(28, "No space left on device (injected)")
        self._budget -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _fail_writing(monkeypatch, name: str, budget: int) -> None:
    """Make the next write of the file ``name`` fail partway, after ``budget`` bytes."""

    def failing_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" in mode and Path(path).name.startswith(f".{name}."):
            return _FailingFile(fh, budget)
        return fh

    monkeypatch.setattr(scoi.manifest, "open", failing_open, raising=False)


def _write_error(path: Path) -> str:
    """The message ``main`` prints when ``_fail_writing`` fails the write of ``path``."""
    return f"error: {path}: No space left on device (injected)\n"


BUILD_OUTPUTS = ("corpus.bin", "test.bin", "corpus.poly.bin", "test.poly.bin",
                 "build-manifest.json")
SELECT_OUTPUTS = ("selections_scoi.jsonl", "prompts_scoi.jsonl", "select-manifest.json")


class TestCrashSafeWrites:
    """A write that fails partway leaves neither a partial file nor its temp file."""

    @pytest.mark.parametrize("name", BUILD_OUTPUTS)
    def test_failed_build_write_leaves_no_partial_file(
        self, built, tmp_path, monkeypatch, capsys, name
    ):
        out = tmp_path / "out"
        _fail_writing(monkeypatch, name, (built / name).stat().st_size // 2)
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 2
        assert _write_error(out / name) in capsys.readouterr().err
        monkeypatch.undo()
        assert not (out / name).exists()
        assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []
        # No build manifest yet, so the interrupted directory is "not built".
        assert run("select", "--config", DEMO_CFG, "--out-dir", out) == 1
        assert "caches not built yet" in capsys.readouterr().err
        assert run("build", "--config", DEMO_CFG, "--out-dir", out) == 0
        for path in scoi.cli._cache_paths(built).values():
            assert (out / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("name", SELECT_OUTPUTS)
    def test_failed_select_write_leaves_no_partial_file(
        self, built, selected, tmp_path, monkeypatch, capsys, name
    ):
        out = tmp_path / "out"
        shutil.copytree(built, out)
        _fail_writing(monkeypatch, name, (selected / name).stat().st_size // 2)
        args = ("select", "--config", DEMO_CFG, "--out-dir", out, "--strategy", "scoi")
        assert run(*args) == 2
        assert _write_error(out / name) in capsys.readouterr().err
        monkeypatch.undo()
        assert not (out / name).exists()
        assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []
        pair = SELECT_OUTPUTS[:2]  # a strategy's selections and prompts fail together
        for output in pair:
            if name in pair:
                assert not (out / output).exists()
            else:
                assert (out / output).read_bytes() == (selected / output).read_bytes()
        assert run(*args) == 0
        for output in SELECT_OUTPUTS[:2]:
            assert (out / output).read_bytes() == (selected / output).read_bytes()


CLI_ENTRY = "import sys; from scoi.cli import main; sys.exit(main())"
# Output names of the build's two stages, in the order they are written.
STAGE_OUTPUTS = {"corpus": BUILD_OUTPUTS[:2], "polynomials": BUILD_OUTPUTS[2:4]}


def _kill_at_a_temp(argv: list[str], out: Path, names) -> bool:
    """Run ``scoi <argv>`` as a child process and SIGKILL it as soon as
    ``out`` holds a temp file it is writing for one of ``names``.  False if
    it exited first, having seen no such file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    temps = {f".{name}.{proc.pid}.tmp" for name in names}
    try:
        while proc.poll() is None:
            if not temps.isdisjoint(os.listdir(out)):
                proc.kill()  # the test's own child, not yet waited for
                assert proc.wait(timeout=60) == -signal.SIGKILL
                return True
        assert proc.returncode == 0
        return False
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)


class TestKilledRuns:
    """``build`` and ``select`` SIGKILLed while writing an output: what they
    leave is never a partial file, and a rerun writes a clean run's bytes."""

    ATTEMPTS = 20  # a write can finish between two looks at the directory

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        """A generated corpus of 600 pairs, its config and a clean run's outputs."""
        gen = perfbench_gen()
        inputs = tmp_path_factory.mktemp("killed-runs")
        spec = gen.CorpusSpec(pairs=600, min_tokens=8, max_tokens=40,
                              tests=8, test_min_tokens=8, test_max_tokens=40)
        gen.generate(spec, 17, inputs)
        config = inputs / "run.cfg"
        config.write_text("".join(f"{key} = {inputs / name}\n" for key, name in zip(
            INPUT_KEYS, ("corpus.src", "corpus.tgt", "corpus.conllu", "test.src", "test.conllu")
        )) + "strategy = scoi\n", encoding="utf-8")
        out = inputs / "clean"
        assert run("build", "--config", config, "--out-dir", out) == 0
        assert run("select", "--config", config, "--out-dir", out) == 0
        return config, _outputs(out)

    @pytest.mark.parametrize("stage", STAGE_OUTPUTS)
    def test_killed_build(self, clean, tmp_path, stage):
        config, expected = clean
        for attempt in range(self.ATTEMPTS):
            out = tmp_path / str(attempt)
            out.mkdir()
            argv = ["build", "--config", str(config), "--out-dir", str(out)]
            if _kill_at_a_temp(argv, out, STAGE_OUTPUTS[stage]):
                break
        else:
            pytest.fail(f"no {stage} temp file seen in {self.ATTEMPTS} builds")
        left = _outputs(out)
        for name in BUILD_OUTPUTS[:4]:  # a cache is whole or absent
            assert left.get(name, expected[name]) == expected[name]
        assert run("build", "--config", config, "--out-dir", out) == 0
        assert run("select", "--config", config, "--out-dir", out) == 0
        assert _outputs(out) == expected

    def test_killed_select(self, clean, tmp_path):
        config, expected = clean
        out = tmp_path / "out"
        assert run("build", "--config", config, "--out-dir", out) == 0
        argv = ["select", "--config", str(config), "--out-dir", str(out)]
        for _ in range(self.ATTEMPTS):
            # A kill can land after the temp files were renamed.
            if _kill_at_a_temp(argv, out, SELECT_OUTPUTS[:2]) and any(
                name.endswith(".tmp") for name in os.listdir(out)
            ):
                break
            for name in SELECT_OUTPUTS:
                (out / name).unlink(missing_ok=True)
        else:
            pytest.fail(f"no selection temp file left in {self.ATTEMPTS} runs of select")
        left = _outputs(out)
        for name in SELECT_OUTPUTS[:2]:
            assert left.get(name, expected[name]) == expected[name]
        # The rerun removes the dead writer's temp files.
        assert run("select", "--config", config, "--out-dir", out) == 0
        assert not [name for name in os.listdir(out) if name.endswith(".tmp")]
        assert _outputs(out) == expected


def _outputs(out: Path) -> dict[str, bytes]:
    """Every file of ``out`` but the manifests, which hold wall-clock fields."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name not in ("build-manifest.json", "select-manifest.json")}


def _count_scoring_calls(built, monkeypatch, strategies):
    """Run ``_select_one`` on the first demo test input, recording the arguments
    of each ``cityblock`` call and counting per-candidate scoring calls."""
    config = load_config(DEMO_CFG, {"out_dir": built})
    loaded = scoi.cli._load_built(built)
    test = loaded.test.record(0, loaded.test_poly.polynomial(0))
    ranked = scoi.cli.bm25_topk(loaded.index, test.tokens, config.pool_size, config.bm25_params())
    assert len(ranked) > config.k
    corpus_polys = dict(scoi.treepoly.read_polynomial_cache(built / "corpus.poly.bin")[1])
    pool_rows = np.concatenate([corpus_polys[rid].rows()[0] for rid in sorted(dict(ranked))])
    calls = {"cityblock": [], "max_similarities": 0, "polynomial_distance": 0}
    real_cityblock = scoi.selection.cityblock

    def cityblock(a, b, b_sums=None):
        calls["cityblock"].append((np.array(a), np.array(b), b_sums))
        return real_cityblock(a, b, b_sums)

    monkeypatch.setattr(scoi.selection, "cityblock", cityblock)
    for module, name in (
        (scoi.selection, "max_similarities"),
        (scoi.coverage, "max_similarities"),
        (scoi.selection, "polynomial_distance"),
        (scoi.treepoly, "polynomial_distance"),
    ):
        def counted(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    candidates = scoi.selection.Candidates.from_columns(loaded.corpus_poly, loaded.corpus.tokens)
    scoi.cli._select_one(
        test, strategies, config, loaded, candidates, tuple(loaded.corpus.ids.tolist()),
        config.template(),
    )
    return test, pool_rows, calls


class TestSharedScores:
    def test_all_strategies_score_each_pool_member_once(self, built, monkeypatch):
        test, pool_rows, calls = _count_scoring_calls(built, monkeypatch, list(STRATEGIES))
        # One kernel call, on the test's rows against every member's rows in
        # id order, with those rows' exponent sums.
        [(a, b, b_sums)] = calls["cityblock"]
        assert a.shape == test.poly.rows()[0].shape and np.array_equal(a, test.poly.rows()[0])
        assert b.shape == pool_rows.shape and np.array_equal(b, pool_rows)
        assert b_sums.dtype.kind == "u"
        assert np.array_equal(b_sums, pool_rows.sum(axis=1, dtype=np.int64))
        assert calls["max_similarities"] == 0
        assert calls["polynomial_distance"] == 0

    def test_word_only_computes_no_similarities(self, built, monkeypatch):
        _, _, calls = _count_scoring_calls(built, monkeypatch, ["word-only"])
        assert calls["cityblock"] == []
        assert calls["max_similarities"] == 0
        assert calls["polynomial_distance"] == 0


def _write_tiny_corpus(tmp_path, sources, test_sources):
    def block(tokens):
        lines = [
            f"{i}\t{tok}\t_\t_\t_\t_\t{0 if i == 1 else 1}\t{'root' if i == 1 else 'dep'}\t_\t_"
            for i, tok in enumerate(tokens, start=1)
        ]
        return "\n".join(lines) + "\n\n"

    paths = {
        "corpus_source": tmp_path / "tiny.src",
        "corpus_target": tmp_path / "tiny.tgt",
        "corpus_conllu": tmp_path / "tiny.conllu",
        "test_source": tmp_path / "tiny-test.src",
        "test_conllu": tmp_path / "tiny-test.conllu",
    }
    paths["corpus_source"].write_text("\n".join(sources) + "\n", encoding="utf-8")
    paths["corpus_target"].write_text("\n".join(s.upper() for s in sources) + "\n", encoding="utf-8")
    paths["corpus_conllu"].write_text("".join(block(s.split()) for s in sources), encoding="utf-8")
    paths["test_source"].write_text("\n".join(test_sources) + "\n", encoding="utf-8")
    paths["test_conllu"].write_text("".join(block(s.split()) for s in test_sources), encoding="utf-8")
    return paths


class TestSparsePoolFallbacks:
    def test_fewer_bm25_hits_than_k_flags_pool_exhausted(self, tmp_path):
        sources = ["apple pie", "apple cake", "boat ride", "car trip", "deep well", "fine art"]
        paths = _write_tiny_corpus(tmp_path, sources, ["apple snack"])
        out = tmp_path / "out"
        args = ["build", "--out-dir", out] + [
            arg for key, path in paths.items() for arg in (f"--{key.replace('_', '-')}", path)
        ]
        assert run(*args) == 0
        assert run(
            "select", "--out-dir", out, "--strategy", "scoi", "--k", "4", "--pool-size", "4",
            "--corpus-source", paths["corpus_source"], "--corpus-target", paths["corpus_target"],
            "--corpus-conllu", paths["corpus_conllu"], "--test-source", paths["test_source"],
            "--test-conllu", paths["test_conllu"],
        ) == 0
        record = json.loads((out / "selections_scoi.jsonl").read_text().splitlines()[0])
        # Only the two apple documents share a token with the test input.
        assert record["flags"].get("pool_exhausted") is True
        assert sorted(record["selected"]) == [0, 1]

    def test_no_overlap_falls_back_to_seeded_random_pool(self, tmp_path):
        sources = ["apple pie", "apple cake", "boat ride", "car trip", "deep well", "fine art"]
        paths = _write_tiny_corpus(tmp_path, sources, ["zzz qqq"])
        out = tmp_path / "out"
        args = ["build", "--out-dir", out] + [
            arg for key, path in paths.items() for arg in (f"--{key.replace('_', '-')}", path)
        ]
        assert run(*args) == 0
        select_args = [
            "select", "--out-dir", out, "--strategy", "scoi", "--k", "2", "--pool-size", "4",
            "--corpus-source", paths["corpus_source"], "--corpus-target", paths["corpus_target"],
            "--corpus-conllu", paths["corpus_conllu"], "--test-source", paths["test_source"],
            "--test-conllu", paths["test_conllu"],
        ]
        assert run(*select_args) == 0
        record = json.loads((out / "selections_scoi.jsonl").read_text().splitlines()[0])
        assert record["flags"].get("bm25_fallback") is True
        assert len(record["selected"]) == 2
        # Deterministic: the same seed reproduces the same fallback pool.
        first = (out / "selections_scoi.jsonl").read_bytes()
        assert run(*select_args) == 0
        assert (out / "selections_scoi.jsonl").read_bytes() == first


class TestBenchCommand:
    def test_bench_writes_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run("bench", "--t", "2,4", "--q", "2", "--budget", "10000", "--out", report) == 0
        captured = capsys.readouterr().out
        assert "orig mults" in captured
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["budget"] == 10000
        assert len(payload["rows"]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--t", "2,x", "'x' is not a positive integer"),
        ("--t", "0", "'0' is not a positive integer"),
        ("--t", "2,", "'' is not a positive integer"),
        ("--q", "0", "'0' is not a positive integer"),
        ("--budget", "0", "'0' is not a positive integer"),
    ])
    def test_bad_flag_is_a_usage_error(self, capsys, flag, value, message):
        assert run("bench", flag, value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument {flag}: {message}\n"
        assert "Traceback" not in captured.err


class TestSelectReadsColumns:
    def test_select_builds_no_tree_and_no_corpus_token_bag(self, built, tmp_path, monkeypatch):
        out = tmp_path / "out"
        shutil.copytree(built, out)
        trees, bags = [], []
        real_tree, real_bag = scoi.treepoly.DependencyTree, scoi.corpus.TokenBag

        class SpyBag(real_bag):
            @classmethod
            def from_tokens(cls, tokens):
                bags.append(tuple(tokens))
                return real_bag.from_tokens(tokens)

        def spy_tree(*args):
            trees.append(args)
            return real_tree(*args)

        for module in (scoi.treepoly, scoi.corpus, scoi.conllu):
            monkeypatch.setattr(module, "DependencyTree", spy_tree)
        monkeypatch.setattr(scoi.corpus, "TokenBag", SpyBag)
        assert run("select", "--config", DEMO_CFG, "--out-dir", out) == 0
        assert trees == []
        _, tests, _ = scoi.corpus.read_corpus_cache(out / "test.bin")
        # Each test input's bag, built once; no corpus record's.
        assert sorted(bags) == sorted(t.token_list for t in tests)


    def test_select_makes_no_polynomial_and_no_record_of_the_corpus(
        self, built, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        shutil.copytree(built, out)
        n_tests = len(scoi.corpus.read_corpus_cache(out / "test.bin")[1])
        n_corpus = len(scoi.corpus.read_corpus_cache(out / "corpus.bin")[1])
        assert n_tests != n_corpus
        polys, records = [], []
        real_from_rows = scoi.treepoly.Polynomial.from_rows.__func__
        real_init = scoi.corpus.ExampleRecord.__init__

        def from_rows(cls, rows, counts, dim):
            polys.append(len(rows))
            return real_from_rows(cls, rows, counts, dim)

        def init(self, *args, **kwargs):
            records.append(args[0])
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(scoi.treepoly.Polynomial, "from_rows", classmethod(from_rows))
        monkeypatch.setattr(scoi.corpus.ExampleRecord, "__init__", init)
        assert run("select", "--config", DEMO_CFG, "--out-dir", out) == 0
        # One polynomial and one record per test input, each built once.
        assert len(polys) == len(records) == n_tests
        assert records == sorted(set(records))


INSPECT_GOLDEN = json.loads((FIXTURES / "demo_inspect.json").read_text(encoding="utf-8"))


class TestInspectCommand:
    @pytest.mark.parametrize("args", list(INSPECT_GOLDEN))
    def test_inspect_prints_the_frozen_lines(self, built, capsys, args):
        assert run("inspect", "--config", DEMO_CFG, "--out-dir", built, *args.split()) == 0
        assert capsys.readouterr().out == INSPECT_GOLDEN[args]

    def test_inspect_dumps_tree_poly_coverage(self, built, capsys):
        code = run(
            "inspect", "--config", DEMO_CFG, "--out-dir", built,
            "--record", "0", "--pool", "1,2,3",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tree:" in out
        assert "polynomial terms:" in out
        assert "syntactic" in out and "lexical" in out

    @pytest.mark.parametrize("measure", ["normalized-manhattan", "cosine"])
    def test_pool_coverage_equals_the_set_coverage_oracles(self, built, capsys, measure):
        # inspect --pool scores through PoolScores.coverage; the per-record
        # set coverages against the pool's union are the reference.
        from scoi.coverage import TokenBag, syn_set_cov, word_set_cov
        from scoi.selection import Candidates, PoolScores
        from scoi.treepoly import Polynomial

        loaded = scoi.cli._load_built(built)
        corpus, corpus_poly = loaded.corpus, loaded.corpus_poly
        candidates = Candidates.from_columns(corpus_poly, corpus.tokens)
        rng = random.Random(f"inspect-pool:{measure}")
        for trial in range(40):
            side = rng.choice(["corpus", "test"])
            columns, polys = ((corpus, corpus_poly) if side == "corpus"
                              else (loaded.test, loaded.test_poly))
            row = rng.randrange(len(columns.ids))
            record = columns.record(row, polys.polynomial(row))
            pool = rng.sample(range(len(corpus.ids)), rng.randint(1, 12))
            syn = syn_set_cov(
                record.poly, Polynomial.union(corpus_poly.polynomial(r) for r in pool), measure
            )
            word = word_set_cov(
                record.tokens, TokenBag.from_tokens(t for r in pool for t in corpus.token_list(r))
            )
            assert PoolScores(record, candidates, pool, measure).coverage() == (syn, word)
            if trial % 10 == 0:
                pool_ids = corpus.ids[pool].tolist()
                assert run(
                    "inspect", "--config", DEMO_CFG, "--out-dir", built, "--side", side,
                    "--record", str(record.id), "--pool", ",".join(map(str, pool_ids)),
                    "--measure", measure,
                ) == 0
                assert capsys.readouterr().out.endswith(
                    f"  coverage against pool {pool_ids}:\n"
                    f"    syntactic ({measure}): {syn:.6f}\n    lexical: {word:.6f}\n"
                )

    def test_inspect_tree_lines_are_a_depth_first_walk(self, built, capsys):
        assert run("inspect", "--config", DEMO_CFG, "--out-dir", built, "--record", "0") == 0
        out = capsys.readouterr().out
        tree_lines = out.split("  tree:\n", 1)[1].split("  polynomial terms:\n", 1)[0]
        corpus = scoi.cli._load_built(built).corpus
        vocab = corpus.vocab
        tree = corpus.trees[int(corpus.ids.searchsorted(0))]
        expected = []

        def walk(node, depth):
            expected.append(f"    {'  ' * depth}[{node}] {vocab.labels[tree.labels[node]]}\n")
            for child in tree.children[node]:
                walk(child, depth + 1)

        walk(tree.root, 0)
        assert tree_lines == "".join(expected)

    def test_inspect_deep_test_tree(self, tmp_path, capsys):
        # Test inputs are not length-filtered: a 1,500-node chain is deeper
        # than Python's default recursion limit.
        n = 1_500
        demo = REPO / "data" / "demo"
        src = tmp_path / "test.src"
        conllu = tmp_path / "test.conllu"
        src.write_text(
            (demo / "test.src").read_text(encoding="utf-8")
            + " ".join(f"w{i}" for i in range(n)) + "\n",
            encoding="utf-8",
        )
        chain = "".join(
            f"{i}\tw{i - 1}\t_\t_\t_\t_\t{i - 1}\t{'root' if i == 1 else 'nmod'}\t_\t_\n"
            for i in range(1, n + 1)
        )
        conllu.write_text(
            (demo / "test.conllu").read_text(encoding="utf-8") + chain + "\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        inputs = ("--config", DEMO_CFG, "--out-dir", out, "--test-source", src,
                  "--test-conllu", conllu)
        assert run("build", *inputs) == 0
        capsys.readouterr()
        assert run("inspect", *inputs, "--side", "test", "--record", "8") == 0
        out_text = capsys.readouterr().out
        tree_lines = out_text.split("  tree:\n", 1)[1].split("  polynomial terms:\n", 1)[0]
        assert tree_lines.splitlines() == [
            f"    {'  ' * i}[{i}] {'root' if i == 0 else 'nmod'}" for i in range(n)
        ]
        assert out_text.endswith(f"    root*nmod^{n - 1}\n")
        # The whole output as the JSON-lines corpus cache printed it.
        digest = hashlib.sha256(out_text.encode("utf-8")).hexdigest()
        assert digest == "1e2d9a6233916461b50283724382702498134833767c85126cddbd4b488f2eb9"
        with open(out / "test.poly.bin", "rb") as fh:
            fh.readline()
            assert np.load(fh).dtype == np.uint16

    @pytest.mark.parametrize("pool, message", [
        ("x", "'x' is not an integer id"),
        ("1, 2.5", "'2.5' is not an integer id"),
        ("2,2", "id 2 is named twice"),
        ("5,3,5,5", "id 5 is named twice"),
    ])
    def test_bad_pool_is_a_usage_error(self, built, capsys, pool, message):
        args = ("inspect", "--config", DEMO_CFG, "--out-dir", built, "--record", "0")
        assert run(*args, "--pool", pool) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument --pool: {message}\n"

    def test_inspect_unknown_record_exits_2(self, built, capsys):
        assert run("inspect", "--config", DEMO_CFG, "--out-dir", built, "--record", "99999") == 2

    def test_inspect_test_side(self, built, capsys):
        code = run(
            "inspect", "--config", DEMO_CFG, "--out-dir", built,
            "--record", "0", "--side", "test",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "record 0 (test)" in out


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("strategy = scoi\nwat = 7\n", encoding="utf-8")
        assert run("select", "--config", cfg) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = four\n", encoding="utf-8")
        assert run("select", "--config", cfg) == 1
        assert "expected int" in capsys.readouterr().err

    def test_flags_override_file_values(self, built, tmp_path):
        # demo.cfg says strategy = all; the flag narrows it to one.
        out = tmp_path / "narrow"
        shutil.copytree(built, out)
        assert run("select", "--config", DEMO_CFG, "--out-dir", out, "--strategy", "topk-poly") == 0
        assert (out / "selections_topk-poly.jsonl").is_file()
        assert not (out / "selections_dpp.jsonl").is_file()
        manifest = read_manifest(out / "select-manifest.json")
        assert set(manifest["stages"]["select"]["outputs"]) == {
            "selections_topk-poly.jsonl",
            "prompts_topk-poly.jsonl",
        }

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        from scoi.config import load_config

        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment\n\nk = 3  # trailing comment\npool_size = 9\n", encoding="utf-8")
        config = load_config(cfg)
        assert config.k == 3 and config.pool_size == 9

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        from scoi.config import load_config

        sub = tmp_path / "nested"
        sub.mkdir()
        cfg = sub / "run.cfg"
        cfg.write_text("corpus_source = data/x.src\n", encoding="utf-8")
        config = load_config(cfg)
        assert config.corpus_source == sub.resolve() / "data" / "x.src"


# Values differing from the defaults that every key's checks accept.
ALTERNATIVES = {
    "strategy": "dpp",
    "order": "word-first",
    "measure": "cosine",
    "relevance_norm": "minmax",
    "prompt_style": "instruction",
}
CONFIG_FIELDS = fields(RunConfig)


def _key_type(field) -> type:
    return Path if field.default is None else type(field.default)


def _flag(field) -> str:
    return "--" + field.name.replace("_", "-")


def _raw_value(field, tmp_path) -> str:
    kind = _key_type(field)
    if kind is bool:
        return "true"
    if issubclass(kind, Path):
        return str(tmp_path / f"{field.name}.txt")
    if kind in (int, float):
        return repr(field.default + 1 if kind is int else field.default / 2)
    return ALTERNATIVES.get(field.name, "Klingon")


class TestConfigKeys:
    @pytest.mark.parametrize("field", CONFIG_FIELDS, ids=lambda f: f.name)
    def test_file_line_and_flag_give_the_same_value(self, field, tmp_path):
        raw = _raw_value(field, tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{field.name} = {raw}\n", encoding="utf-8")
        from_file = getattr(load_config(cfg), field.name)
        argv = ["select", _flag(field)] + ([] if _key_type(field) is bool else [raw])
        from_flag = getattr(_config_from_args(build_parser().parse_args(argv)), field.name)
        assert from_file == from_flag != field.default
        assert type(from_file) is type(from_flag)
        assert isinstance(from_flag, _key_type(field))

    @pytest.mark.parametrize(
        "field", [f for f in CONFIG_FIELDS if _key_type(f) is bool], ids=lambda f: f.name
    )
    def test_bool_flag_only_switches_a_key_on(self, field, capsys):
        parser = build_parser()
        assert getattr(_config_from_args(parser.parse_args(["select"])), field.name) is False
        on = parser.parse_args(["select", _flag(field)])
        assert getattr(_config_from_args(on), field.name) is True
        assert run("select", _flag(field), "false") == 1
        assert "unrecognized arguments: false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field", [f for f in CONFIG_FIELDS if _key_type(f) in (int, float)], ids=lambda f: f.name
    )
    def test_bad_flag_value_exits_1_like_a_bad_file_value(self, field, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{field.name} = four\n", encoding="utf-8")
        assert run("select", "--config", cfg) == 1
        from_file = capsys.readouterr().err
        assert run("select", _flag(field), "four") == 1
        from_flag = capsys.readouterr().err
        expected = f"error: {field.name}: expected {_key_type(field).__name__}, got 'four'\n"
        assert from_file == from_flag == expected

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "-Infinity", "-nan"])
    @pytest.mark.parametrize(
        "field", [f for f in CONFIG_FIELDS if _key_type(f) is float], ids=lambda f: f.name
    )
    def test_non_finite_float_exits_1_from_a_file_and_a_flag(self, field, raw, tmp_path, capsys):
        # NaN passes every range check (each comparison is false): a NaN
        # bm25_k1 made every BM25 score NaN, a NaN dpp_lambda selected nothing.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{field.name} = {raw}\n", encoding="utf-8")
        assert run("select", "--config", cfg) == 1
        from_file = capsys.readouterr().err
        assert run("select", f"{_flag(field)}={raw}") == 1
        from_flag = capsys.readouterr().err
        # A bare "-inf" after the flag is its value, not an option of its own.
        assert run("select", _flag(field), raw) == 1
        from_spaced_flag = capsys.readouterr().err
        expected = f"error: {field.name}: expected a finite float, got {raw!r}\n"
        assert from_file == from_flag == from_spaced_flag == expected


def _readme_defaults() -> dict[str, str]:
    """Key -> default cell of the README configuration table."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    defaults = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        key_cell, default_cell = line.split("|")[1:3]
        keys = re.findall(r"`([^`]+)`", key_cell)
        values = re.findall(r"`([^`]+)`", default_cell) or [default_cell.strip()] * len(keys)
        assert len(values) == len(keys), line
        defaults.update(zip(keys, values))
    return defaults


class TestReadmeConfigTable:
    def test_lists_exactly_the_config_keys(self):
        assert sorted(_readme_defaults()) == sorted(f.name for f in CONFIG_FIELDS)

    @pytest.mark.parametrize("field", CONFIG_FIELDS, ids=lambda f: f.name)
    def test_states_each_default(self, field):
        default = field.default
        if default is None:
            expected = "required"
        elif isinstance(default, bool):
            expected = str(default).lower()
        else:
            expected = str(default)
        assert _readme_defaults()[field.name] == expected


def _readme_scripts() -> list[str]:
    """Paths named by the bullets of the README "Scripts" section."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\* `([^`]+)`", section, flags=re.MULTILINE)


class TestReadmeScripts:
    def test_lists_exactly_the_scripts(self):
        on_disk = sorted(f"scripts/{p.name}" for p in (REPO / "scripts").iterdir() if p.is_file())
        assert sorted(_readme_scripts()) == on_disk


def _readme_file_formats() -> dict[str, str]:
    """File name -> its bullet of the README "File formats" section."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    for bullet in re.split(r"^\* ", section, flags=re.MULTILINE)[1:]:
        for name in re.findall(r"`([^`]+)`", bullet.split(":", 1)[0]):
            bullets[name] = bullet
    return bullets


CACHE_VERSIONS = {
    "corpus_cache": scoi.corpus.CORPUS_CACHE_VERSION,
    "test_cache": scoi.corpus.CORPUS_CACHE_VERSION,
    "corpus_poly": scoi.treepoly.POLY_CACHE_VERSION,
    "test_poly": scoi.treepoly.POLY_CACHE_VERSION,
}
OUTPUT_FILES = ("selections_<strategy>.jsonl", "prompts_<strategy>.jsonl",
                "build-manifest.json", "select-manifest.json")


class TestReadmeFileFormats:
    def test_names_exactly_the_caches_and_outputs(self):
        paths = scoi.cli._cache_paths(Path("out"))
        assert set(paths) == set(CACHE_VERSIONS)
        caches = [path.name for path in paths.values()]
        assert sorted(_readme_file_formats()) == sorted([*caches, *OUTPUT_FILES])

    @pytest.mark.parametrize("key", sorted(CACHE_VERSIONS))
    def test_states_each_cache_format_version(self, key):
        bullet = _readme_file_formats()[scoi.cli._cache_paths(Path("out"))[key].name]
        # The first version a bullet names is its format's current one.
        assert re.search(r"\bversion (\d+)\b", bullet).group(1) == str(CACHE_VERSIONS[key])


# numpy and every scoi module that imports it at the top of its file.
NUMERIC_MODULES = ("numpy", *sorted(
    f"scoi.{path.stem}" for path in (REPO / "src" / "scoi").glob("*.py")
    if re.search(r"^import numpy\b", path.read_text(encoding="utf-8"), flags=re.MULTILINE)
))

# Runs ``scoi.cli.main`` in a fresh interpreter and reports, as its last line
# of output, the exit code, the scipy modules loaded by the end, whether
# ``scoi.bench`` was imported, and which of NUMERIC_MODULES were loaded.
_IMPORT_PROBE = """
import json, sys
import scoi.cli

try:
    code = scoi.cli.main(sys.argv[2:])
except SystemExit as exc:  # --help and --version
    code = exc.code
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
numeric = sorted(m for m in json.loads(sys.argv[1]) if m in sys.modules)
print(json.dumps({"exit": code, "scipy": scipy, "bench": "scoi.bench" in sys.modules,
                  "numeric": numeric}))
"""


def _fresh_python(*argv) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``argv``, ``src`` on its path; it must exit 0."""
    src = str(REPO / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *map(str, argv)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def _fresh_cli(*args, python_flags=()) -> dict:
    """The probe's report on ``scoi <args>``, plus the interpreter's stderr."""
    proc = _fresh_python(*python_flags, "-c", _IMPORT_PROBE, json.dumps(NUMERIC_MODULES), *args)
    return {**json.loads(proc.stdout.splitlines()[-1]), "stderr": proc.stderr}


class TestScipyImportBoundary:
    """Only the cosine measure loads scipy: select and inspect --pool with it."""

    def test_only_the_bench_command_imports_the_bench_module(self, built, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(built, out)
        common = ("--config", DEMO_CFG, "--out-dir", out)
        for argv in (
            ("build", *common),
            ("select", *common),
            ("inspect", *common, "--record", "0"),
            ("bench", "--t", "2", "--q", "1"),
        ):
            report = _fresh_cli(*argv)
            assert report["exit"] == 0, argv
            assert report["bench"] == (argv[0] == "bench"), argv

    def test_build_rebuild_inspect_and_bench_leave_scipy_unloaded(self, tmp_path):
        out = tmp_path / "out"
        common = ("--config", DEMO_CFG, "--out-dir", out)
        for argv in (
            ("build", *common),
            ("build", *common),
            ("inspect", *common, "--record", "0"),
            ("bench", "--t", "2", "--q", "1"),
        ):
            report = _fresh_cli(*argv)
            assert report["exit"] == 0, argv
            assert report["scipy"] == [], argv

    @pytest.mark.parametrize(
        "argv, loads_scipy",
        [
            (("inspect", "--record", "0", "--pool", "1,2,3"), False),
            (("inspect", "--record", "0", "--pool", "1,2,3", "--measure", "cosine"), True),
            (("select", "--strategy", "all"), False),
            (("select", "--measure", "cosine", "--strategy", "scoi"), True),
        ],
        ids=["inspect-pool", "inspect-pool-cosine", "select", "select-cosine"],
    )
    def test_scoring_commands_load_scipy_on_demand(self, built, tmp_path, argv, loads_scipy):
        out = tmp_path / "out"
        shutil.copytree(built, out)
        report = _fresh_cli(argv[0], "--config", DEMO_CFG, "--out-dir", out, *argv[1:])
        assert report["exit"] == 0
        if loads_scipy:
            assert "scipy.spatial.distance" in report["scipy"]
        else:
            assert report["scipy"] == []

    def test_dev_mode_build_and_select_warn_nothing(self, tmp_path):
        """Under ``-X dev`` with ResourceWarning an error, the demo build and
        default select leave no file handle unclosed and load no scipy."""
        out = tmp_path / "out"
        for command in ("build", "select"):
            report = _fresh_cli(
                command, "--config", DEMO_CFG, "--out-dir", out,
                python_flags=("-X", "dev", "-W", "error::ResourceWarning"),
            )
            assert report["exit"] == 0, command
            assert "ResourceWarning" not in report["stderr"], command
            assert report["scipy"] == [], command


def _numeric_after_import(module: str) -> list[str]:
    """NUMERIC_MODULES loaded by a bare ``import <module>`` in a fresh interpreter."""
    probe = (f"import json, sys; import {module}; "
             "print(json.dumps([m for m in json.loads(sys.argv[1]) if m in sys.modules]))")
    return json.loads(_fresh_python("-c", probe, json.dumps(NUMERIC_MODULES)).stdout)


class TestNumpyImportBoundary:
    """numpy and the numeric modules load only when a build stage, select,
    inspect or bench starts; a run that starts none loads none of them."""

    def test_the_numeric_modules_are_found(self):
        assert {"numpy", "scoi.corpus", "scoi.selection", "scoi.treepoly"} <= set(NUMERIC_MODULES)
        assert not {"scoi.cli", "scoi.config", "scoi.manifest"} & set(NUMERIC_MODULES)

    @pytest.mark.parametrize("module", ["scoi", "scoi.cli"])
    def test_bare_import_loads_no_numeric_module(self, module):
        assert _numeric_after_import(module) == []

    def test_runs_that_start_no_stage_load_no_numeric_module(self, built, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(built, out)
        common = ("--config", DEMO_CFG, "--out-dir", out)
        for argv, code in (
            (("--version",), 0),
            (("--help",), 0),
            (("build", *common, "--k", "0"), 1),
            (("select", *common, "--strategy", "nope"), 1),
            (("select", "--config", DEMO_CFG, "--out-dir", tmp_path / "unbuilt"), 1),
            (("build", *common), 0),
        ):
            report = _fresh_cli(*argv)
            assert report["exit"] == code, argv
            assert report["numeric"] == [], argv
        manifest = read_manifest(out / "build-manifest.json")
        assert all(stage["skipped"] for stage in manifest["stages"].values())

    def test_stages_and_commands_load_numpy_when_they_start(self, tmp_path):
        out = tmp_path / "out"
        common = ("--config", DEMO_CFG, "--out-dir", out)
        for argv in (
            ("build", *common),
            ("select", *common, "--strategy", "scoi"),
            ("inspect", *common, "--record", "0"),
            ("bench", "--t", "2", "--q", "1"),
        ):
            report = _fresh_cli(*argv)
            assert report["exit"] == 0, argv
            assert "numpy" in report["numeric"], argv

    def test_a_stale_stage_loads_numpy_and_rebuilds(self, built, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(built, out)
        (out / "test.poly.bin").unlink()
        report = _fresh_cli("build", "--config", DEMO_CFG, "--out-dir", out)
        assert report["exit"] == 0
        assert "scoi.treepoly" in report["numeric"]
        assert sha256_file(out / "test.poly.bin") == sha256_file(built / "test.poly.bin")


class TestLazyNames:
    def test_every_public_name_resolves_and_is_listed(self):
        import scoi

        assert set(scoi.__all__) <= set(dir(scoi))
        for name in scoi.__all__:
            value = getattr(scoi, name)
            if name != "__version__":
                assert value is getattr(sys.modules[value.__module__], name), name
        with pytest.raises(AttributeError):
            scoi.not_a_name  # noqa: B018

    def test_old_import_paths_give_the_objects_of_their_new_homes(self):
        import scoi.config

        for module, name, home in (
            (scoi.selection, "SelectionPlan", scoi.config),
            (scoi.selection, "STRATEGIES", scoi.config),
            (scoi.selection, "ORDERS", scoi.config),
            (scoi.selection, "RELEVANCE_NORMS", scoi.config),
            (scoi.retrieval, "Bm25Params", scoi.config),
            (scoi.coverage, "MEASURES", scoi.config),
            (scoi.corpus, "CORPUS_CACHE_VERSION", scoi.manifest),
            (scoi.treepoly, "POLY_CACHE_VERSION", scoi.manifest),
            (scoi.cli, "CORPUS_CACHE_VERSION", scoi.manifest),
            (scoi.cli, "POLY_CACHE_VERSION", scoi.manifest),
        ):
            assert getattr(module, name) is getattr(home, name), (module.__name__, name)

    def test_cli_binds_each_numeric_name_from_its_module(self):
        for module, names in scoi.cli._NUMERIC.items():
            for name in names:
                assert getattr(scoi.cli, name) is getattr(sys.modules[f"scoi.{module}"], name)
        with pytest.raises(AttributeError):
            scoi.cli.not_a_name  # noqa: B018

    def test_binding_keeps_a_wrapper_set_on_the_cli(self, monkeypatch):
        def spy(*args):
            raise AssertionError("not called")

        monkeypatch.setattr(scoi.cli, "bm25_topk", spy)
        scoi.cli._bind_numeric()
        assert scoi.cli.bm25_topk is spy
