"""Command-line pipeline: build caches, select examples, bench, inspect.

Exit codes: 0 success, 1 usage/config problems, 2 data errors and failed
file operations.  Every build/select run writes a manifest with input and
output digests; reruns with unchanged inputs skip completed build stages,
and select and inspect refuse caches whose digests differ from the build
manifest.

The numeric modules, and numpy with them, load at the first build stage
that runs or when ``select``, ``inspect`` or ``bench`` starts.  A run that
starts none of them (``--help``, ``--version``, a config error, a build
whose stages are all current) hashes and checks its files without them.
"""

from __future__ import annotations

import argparse
import importlib
import random
import sys
import time
from collections.abc import Callable
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .config import INPUT_KEYS, KEY_TYPES, STRATEGIES, RunConfig, coerce, load_config
from .errors import ConfigError, DataError, ScoiError
from .manifest import (
    CORPUS_CACHE_VERSION,
    POLY_CACHE_VERSION,
    RunManifest,
    atomic_write,
    compact_json,
    read_manifest,
    remove_stale_temps,
    sha256_file,
    stage_is_current,
)
from .prompts import render_prompt
from .tokenizer import TOKENIZER_VERSION

if TYPE_CHECKING:
    import numpy as np

# The names this module calls from the numeric modules (those that import
# numpy), keyed by module.  None is bound at import, so a run that starts no
# stage loads no numpy: ``_bind_numeric`` binds them at the top of each
# build stage and before the caches are read, and ``__getattr__`` on a
# lookup from outside.  A bound name is never rebound, so a wrapper put on
# ``scoi.cli.<name>`` stays in effect.  perfbench/traced.py wraps some that
# the pipeline no longer calls: the record readers, the index file helpers
# and ``build_index``.
_NUMERIC = {
    "corpus": (
        "CorpusColumns", "filter_by_length", "load_parallel_corpus", "load_test_inputs",
        "read_corpus_columns", "write_corpus_cache",
        "apply_polynomial_cache", "attach_polynomials", "read_corpus_cache",
    ),
    "retrieval": (
        "InvertedIndex", "bm25_topk", "index_from_tokens",
        "build_index", "load_index", "save_index",
    ),
    "selection": ("Candidates", "PoolScores", "run_strategy"),
    "treepoly": (
        "LabelVocabulary", "PolyColumns", "read_polynomial_columns",
        "simplified_rows", "write_polynomial_cache", "read_polynomial_cache",
    ),
}


def _bind_numeric() -> None:
    """Bind every name of ``_NUMERIC`` that is not bound yet."""
    bound = globals()
    for module, names in _NUMERIC.items():
        found = importlib.import_module(f".{module}", __package__)
        for name in names:
            bound.setdefault(name, getattr(found, name))


def __getattr__(name: str):
    if not any(name in names for names in _NUMERIC.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_numeric()
    return globals()[name]


_BUILD_MANIFEST = "build-manifest.json"
_SELECT_MANIFEST = "select-manifest.json"
# Every file ``select`` writes, for any strategy.
_SELECT_OUTPUTS = {_SELECT_MANIFEST, *(f"{kind}_{s}.jsonl" for s in STRATEGIES
                                       for kind in ("selections", "prompts"))}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise ConfigError(message)

    def _parse_optional(self, arg_string):
        try:  # "-inf" is a value, so that its flag's type names what is wrong with it
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _cache_paths(out_dir: Path) -> dict[str, Path]:
    return {
        "corpus_cache": out_dir / "corpus.bin",
        "test_cache": out_dir / "test.bin",
        "corpus_poly": out_dir / "corpus.poly.bin",
        "test_poly": out_dir / "test.poly.bin",
    }


def _require_inputs(config: RunConfig) -> None:
    needed = {key: getattr(config, key) for key in INPUT_KEYS}
    missing = [name for name, path in needed.items() if path is None]
    if missing:
        raise ConfigError(f"missing required input paths: {', '.join(missing)}")
    absent = [f"{name} ({path})" for name, path in needed.items() if not Path(path).is_file()]
    if absent:
        raise ConfigError(f"input files not found: {'; '.join(absent)}")


def _run_stage(
    manifest: RunManifest,
    previous: dict | None,
    name: str,
    inputs: dict[str, str],
    outputs: dict[str, Path],
    write: Callable[[], str],
) -> dict[str, str]:
    """Record stage ``name`` as skipped if ``previous`` proves it current, else run it.

    ``inputs`` maps names to digests, ``outputs`` names to the paths the
    stage writes; ``write()`` writes them and returns the message printed
    before the stage's seconds.  Returns the output digests, verified or
    computed, so later stages take their inputs without hashing again.
    """
    start = time.perf_counter()
    if stage_is_current(previous, name, inputs, outputs):
        digests = previous["stages"][name]["outputs"]
        manifest.record_stage(name, inputs, digests, 0.0, skipped=True)
        print(f"{name}: skipped (inputs unchanged)")
        return digests
    _bind_numeric()
    message = write()
    seconds = time.perf_counter() - start
    digests = {str(k): sha256_file(p) for k, p in outputs.items()}
    manifest.record_stage(name, inputs, digests, seconds)
    print(f"{name}: {message} ({seconds:.2f}s)")
    return digests


def cmd_build(config: RunConfig) -> int:
    _require_inputs(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = _cache_paths(out_dir)
    remove_stale_temps(out_dir, {*(p.name for p in paths.values()), _BUILD_MANIFEST,
                                 *_SELECT_OUTPUTS})
    previous = read_manifest(out_dir / _BUILD_MANIFEST)
    manifest = RunManifest(config.snapshot(), __version__)
    # (vocab, record ids, tree columns) per corpus cache, kept from ingest
    # for the polynomial stage.
    loaded: dict[str, tuple] = {}

    def trees(cache: str):
        if cache not in loaded:
            columns = read_corpus_columns(paths[cache])
            loaded[cache] = (columns.vocab, columns.ids, columns.trees)
        return loaded[cache]

    def ingest() -> str:
        vocab = LabelVocabulary()
        corpus = load_parallel_corpus(
            config.corpus_source, config.corpus_target, config.corpus_conllu, vocab,
            config.fold_case, config.strip_punctuation,
        )
        test = load_test_inputs(
            config.test_source, config.test_conllu, vocab,
            config.fold_case, config.strip_punctuation,
        )
        corpus, removed = filter_by_length(corpus, config.max_tokens, config.filter_target)
        if not len(corpus.ids):
            raise DataError("every corpus record was removed by the length filter")
        for cache, columns in (("corpus_cache", corpus), ("test_cache", test)):
            write_corpus_cache(paths[cache], columns)
            loaded[cache] = (vocab, columns.ids, columns.trees)
        return (
            f"{len(corpus.ids)} records kept, {removed} removed by the "
            f"{config.max_tokens}-token filter"
        )

    def polynomials() -> str:
        built = 0
        for cache, poly in (("corpus_cache", "corpus_poly"), ("test_cache", "test_poly")):
            vocab, ids, columns = trees(cache)
            polys = simplified_rows(columns.labels, columns.parents, columns.offsets, len(vocab))
            write_polynomial_cache(paths[poly], ids, *polys, vocab)
            built += len(ids)
        return f"{built} built"

    def pick(*keys: str) -> dict[str, Path]:
        return {key: paths[key] for key in keys}

    corpus_inputs = {key: sha256_file(getattr(config, key)) for key in INPUT_KEYS}
    corpus_inputs.update(
        max_tokens=str(config.max_tokens),
        filter_target=str(config.filter_target),
        fold_case=str(config.fold_case),
        strip_punctuation=str(config.strip_punctuation),
        tokenizer_version=str(TOKENIZER_VERSION),
        corpus_cache_version=str(CORPUS_CACHE_VERSION),
    )
    caches = _run_stage(
        manifest, previous, "corpus", corpus_inputs, pick("corpus_cache", "test_cache"), ingest
    )
    poly_inputs = {**caches, "poly_cache_version": str(POLY_CACHE_VERSION)}
    _run_stage(
        manifest, previous, "polynomials", poly_inputs, pick("corpus_poly", "test_poly"),
        polynomials,
    )
    manifest.save(out_dir / _BUILD_MANIFEST)
    return 0


class _Built(NamedTuple):
    """The validated columns of the four caches, the BM25 index derived from
    the corpus cache, and the caches' digests."""

    corpus: CorpusColumns
    test: CorpusColumns
    corpus_poly: PolyColumns
    test_poly: PolyColumns
    index: InvertedIndex
    digests: dict[str, str]


def _check_ids(path: Path, ids: np.ndarray, cache_path: Path, cache_ids: np.ndarray) -> None:
    """Refuse a polynomial cache whose record ids are not its corpus cache's, row for row."""
    n = min(len(ids), len(cache_ids))
    differ = (ids[:n] != cache_ids[:n]).nonzero()[0]
    row = int(differ[0]) if differ.size else n
    if row < len(cache_ids):
        raise DataError(
            f"{path}: record {cache_ids[row]}: not at row {row}, as in {cache_path.name}"
        )
    if row < len(ids):
        raise DataError(f"{path}: record {ids[row]}: not in {cache_path.name}")


def _load_built(out_dir: Path, keep_trees: bool = True) -> _Built:
    """Read the four caches as columns and check them against the build manifest.

    The BM25 index is derived from the corpus cache's token column, before
    the other caches load so that fewer arrays are alive while it is built.
    The digest check runs after every cache has parsed, so a malformed file
    keeps its located message and a well-formed but stale one fails on its
    digest.  Without ``keep_trees`` the trees are validated and dropped.
    """
    paths = _cache_paths(out_dir)
    manifest_path = out_dir / _BUILD_MANIFEST
    missing = [str(p) for p in (*paths.values(), manifest_path) if not p.is_file()]
    if missing:
        raise ConfigError(
            "caches not built yet; run 'scoi build' first (missing: " + ", ".join(missing) + ")"
        )
    _bind_numeric()
    corpus = read_corpus_columns(paths["corpus_cache"], keep_trees)
    if not len(corpus.ids):
        raise DataError(f"{paths['corpus_cache']}: no records to index")
    index = index_from_tokens(corpus.tokens)
    test = read_corpus_columns(paths["test_cache"], keep_trees)
    if test.vocab != corpus.vocab:
        raise DataError(f"{paths['test_cache']}: label vocabulary differs from the corpus cache's")
    polys = {}
    for key, cache, columns in (("corpus_poly", "corpus_cache", corpus),
                                ("test_poly", "test_cache", test)):
        poly_vocab, polys[key] = read_polynomial_columns(paths[key])
        if poly_vocab != corpus.vocab:
            raise DataError(f"{paths[key]}: label vocabulary differs from the corpus cache's")
        _check_ids(paths[key], polys[key].ids, paths[cache], columns.ids)
    built = read_manifest(manifest_path)
    if built is None:
        raise DataError(f"{manifest_path}: not a build manifest")
    recorded = {}
    for stage in built.get("stages", {}).values():
        recorded.update(stage.get("outputs", {}))
    digests = {key: sha256_file(path) for key, path in paths.items()}
    for key, path in paths.items():
        if digests[key] != recorded.get(key):
            raise DataError(
                f"{path}: digest differs from {manifest_path.name}; rerun 'scoi build'"
            )
    return _Built(corpus, test, polys["corpus_poly"], polys["test_poly"], index, digests)


def _select_one(test, strategies, config, built, candidates, corpus_ids, template):
    params = config.bm25_params()
    index = built.index
    ranked = bm25_topk(index, test.tokens, config.pool_size, params)
    fallback = False
    if ranked:
        pool = [rid for rid, _ in ranked]
    else:
        # No lexical overlap with the corpus: deterministic random pool.
        rng = random.Random(f"{config.seed}:bm25-fallback:{test.id}")
        size = min(config.pool_size, len(corpus_ids))
        pool = rng.sample(corpus_ids, size)
        fallback = True
    # Every strategy reads its per-candidate scores from this one table.
    # Corpus rows are index rows.
    scores = PoolScores(test, candidates, index.ids.searchsorted(pool), config.measure)
    outputs = []
    for strategy in strategies:
        plan = config.plan(strategy)
        result = run_strategy(
            test, pool, plan, index=index, corpus_ids=corpus_ids, params=params, scores=scores
        )
        if fallback:
            result.flags["bm25_fallback"] = True
        examples = [
            (built.corpus.decode("source", row), built.corpus.decode("target", row))
            for row in index.ids.searchsorted(result.selected).tolist()
        ]
        short_ok = result.flags.get("pool_exhausted") or result.flags.get("bm25_fallback")
        prompt = render_prompt(
            template,
            examples,
            test.source,
            expected_count=None if short_ok else plan.k,
        )
        outputs.append((strategy, result.to_record(), {
            "test_id": test.id,
            "strategy": strategy,
            "prompt": prompt,
        }))
    return outputs


def cmd_select(config: RunConfig) -> int:
    out_dir = Path(config.out_dir)
    built = _load_built(out_dir, keep_trees=False)
    remove_stale_temps(out_dir, _SELECT_OUTPUTS)
    corpus_ids = tuple(built.corpus.ids.tolist())
    strategies = list(STRATEGIES) if config.strategy == "all" else [config.strategy]
    if "random" in strategies and len(corpus_ids) < config.k:
        raise ConfigError(
            f"random strategy draws from the whole corpus, but k={config.k} exceeds "
            f"its {len(corpus_ids)} records"
        )
    template = config.template()
    test_records = [
        built.test.record(row, built.test_poly.polynomial(row))
        for row in range(len(built.test.ids))
    ]
    candidates = Candidates.from_columns(
        built.corpus_poly, built.corpus.tokens, built.index.name_ids
    )

    start = time.perf_counter()
    per_test = [
        _select_one(test, strategies, config, built, candidates, corpus_ids, template)
        for test in test_records
    ]
    seconds = time.perf_counter() - start

    manifest = RunManifest(config.snapshot(), __version__)
    output_digests: dict[str, str] = {}
    for strategy in strategies:
        sel_path = out_dir / f"selections_{strategy}.jsonl"
        prompt_path = out_dir / f"prompts_{strategy}.jsonl"
        with atomic_write(sel_path) as sel_fh, atomic_write(prompt_path) as prompt_fh:
            for outputs in per_test:
                for out_strategy, record, prompt in outputs:
                    if out_strategy != strategy:
                        continue
                    sel_fh.write(compact_json(record) + "\n")
                    prompt_fh.write(compact_json(prompt) + "\n")
        output_digests[sel_path.name] = sha256_file(sel_path)
        output_digests[prompt_path.name] = sha256_file(prompt_path)
        print(f"{strategy}: wrote {sel_path.name} and {prompt_path.name}")

    manifest.record_stage("select", built.digests, output_digests, seconds)
    manifest.save(out_dir / _SELECT_MANIFEST)
    print(f"select: {len(test_records)} test inputs x {len(strategies)} strategies ({seconds:.2f}s)")
    return 0


def cmd_bench(args) -> int:
    from .bench import run_bench

    report = run_bench(qs=args.q, ts=args.t, budget=args.budget)
    sys.stdout.write(report.to_table())
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
        print(f"report written to {args.out}")
    return 0


def _format_term(pairs, vocab: LabelVocabulary) -> str:
    chunks = []
    for label, exp in pairs:
        name = vocab.labels[label]
        chunks.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(chunks)


def _row(ids: np.ndarray, record_id: int) -> int | None:
    """The row of ``record_id`` in the ascending ``ids``, or None."""
    row = int(ids.searchsorted(record_id))
    return row if row < len(ids) and ids[row] == record_id else None


def cmd_inspect(config: RunConfig, record_id: int, side: str, pool_ids: list[int]) -> int:
    out_dir = Path(config.out_dir)
    built = _load_built(out_dir)
    vocab = built.corpus.vocab
    columns, polys = (
        (built.corpus, built.corpus_poly) if side == "corpus" else (built.test, built.test_poly)
    )
    row = _row(columns.ids, record_id)
    if row is None:
        raise DataError(f"no {side} record with id {record_id}")
    record = columns.record(row, polys.polynomial(row))

    print(f"record {record.id} ({side})")
    print(f"  source: {record.source}")
    if record.target:
        print(f"  target: {record.target}")
    print(f"  tokens: {' '.join(record.token_list)}")
    print("  tree:")
    tree = record.tree
    # Depth first, children in ascending order; an explicit stack, since
    # test trees are not length-filtered and can be thousands of nodes deep.
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        print(f"    {'  ' * depth}[{node}] {vocab.labels[tree.labels[node]]}")
        stack.extend((child, depth + 1) for child in reversed(tree.children[node]))
    print("  polynomial terms:")
    for pairs, count in record.poly.term_vectors():
        suffix = f"  (x{count})" if count > 1 else ""
        print(f"    {_format_term(pairs, vocab)}{suffix}")

    if pool_ids:
        rows = [_row(built.corpus.ids, i) for i in pool_ids]
        missing = [i for i, r in zip(pool_ids, rows) if r is None]
        if missing:
            raise DataError(f"pool ids not in corpus: {missing}")
        candidates = Candidates.from_columns(
            built.corpus_poly, built.corpus.tokens, built.index.name_ids
        )
        syn, word = PoolScores(record, candidates, rows, config.measure).coverage()
        print(f"  coverage against pool {pool_ids}:")
        print(f"    syntactic ({config.measure}): {syn:.6f}")
        print(f"    lexical: {word:.6f}")
    return 0


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per config key, ``pool_size`` as ``--pool-size``.

    A boolean flag takes no value and can only switch its key on; any other
    flag parses its value as the config file does.
    """
    parser.add_argument("--config", help="key=value config file")
    for key, kind in KEY_TYPES.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, dest=key, action="store_const", const=True)
        else:
            parser.add_argument(flag, dest=key, type=partial(coerce, key, kind))


def _config_from_args(args) -> RunConfig:
    return load_config(args.config, {key: getattr(args, key) for key in KEY_TYPES})


def _pool_ids(text: str) -> list[int]:
    """The corpus ids of ``--pool``: integers, each named once."""
    ids: list[int] = []
    for part in filter(str.strip, text.split(",")):
        try:
            ids.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part.strip()!r} is not an integer id") from None
        if ids[-1] in ids[:-1]:
            raise argparse.ArgumentTypeError(f"id {ids[-1]} is named twice")
    return ids


def _positive_int(text: str) -> int:
    """An integer of at least 1, in decimal digits."""
    if text.strip().isdecimal() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"{text.strip()!r} is not a positive integer")


def _positive_ints(text: str) -> tuple[int, ...]:
    """Comma-separated positive integers, at least one."""
    return tuple(map(_positive_int, text.split(",")))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scoi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"scoi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="ingest corpus and build caches")
    _add_config_arguments(p_build)

    p_select = sub.add_parser("select", help="select demonstrations and render prompts")
    _add_config_arguments(p_select)

    p_bench = sub.add_parser("bench", help="scaling comparison of the two constructions")
    p_bench.add_argument("--t", type=_positive_ints, default="2,4,8,16",
                         help="comma-separated chain lengths")
    p_bench.add_argument("--q", type=_positive_ints, default="1,2,3",
                         help="comma-separated crown depths (p = 2^q)")
    p_bench.add_argument("--budget", type=_positive_int, default=1_000_000, help="term budget")
    p_bench.add_argument("--out", help="write a JSON report here")

    p_inspect = sub.add_parser("inspect", help="dump one record's tree, polynomial, coverage")
    _add_config_arguments(p_inspect)
    p_inspect.add_argument("--record", type=int, required=True)
    p_inspect.add_argument("--side", choices=("corpus", "test"), default="corpus")
    p_inspect.add_argument("--pool", type=_pool_ids, default=[],
                           help="comma-separated corpus ids to cover with")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "build":
            return cmd_build(_config_from_args(args))
        if args.command == "select":
            return cmd_select(_config_from_args(args))
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "inspect":
            config = _config_from_args(args)
            return cmd_inspect(config, args.record, args.side, args.pool)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ScoiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
