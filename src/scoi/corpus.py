"""Corpus assembly: parallel text + parses -> example records, plus caches.

A record couples one source sentence with its translation, source-side
tokens, dependency tree, and (once built) its polynomial.  Line i of the
source file, line i of the target file, and sentence block i of the
CoNLL-U file form record i; mismatched counts are a hard error.  Record
ids are the original line indices and survive filtering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .conllu import load_conllu
from .coverage import TokenBag
from .errors import AlignmentError, DataError, MalformedTreeError, UnknownLabelError
from .manifest import atomic_write, compact_json, read_header
from .tokenizer import apply_token_flags, tokenize
from .treepoly import (
    DependencyTree,
    LabelVocabulary,
    Polynomial,
    check_labels,
    simplified_polynomial,
    simplified_term_counter,  # noqa: F401  unused; perfbench/traced.py wraps this name
)


@dataclass
class ExampleRecord:
    """One corpus entry; ``tokens``/``tree``/``poly`` are source-side."""

    id: int
    source: str
    target: str
    token_list: tuple[str, ...]
    tokens: TokenBag
    tree: DependencyTree | None = None
    poly: Polynomial | None = None

    @classmethod
    def build(
        cls,
        record_id: int,
        source: str,
        target: str,
        tree: DependencyTree | None,
        fold_case: bool = False,
        strip_punctuation: bool = False,
    ) -> "ExampleRecord":
        tokens = apply_token_flags(tokenize(source), fold_case, strip_punctuation)
        if not tokens:
            raise DataError(f"record {record_id}: no tokens left after token flags")
        token_list = tuple(tokens)
        return cls(record_id, source, target, token_list, TokenBag.from_tokens(token_list), tree)


def _read_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def load_parallel_corpus(
    source_path,
    target_path,
    conllu_path,
    vocab: LabelVocabulary,
    fold_case: bool = False,
    strip_punctuation: bool = False,
) -> list[ExampleRecord]:
    sources = _read_lines(source_path)
    targets = _read_lines(target_path)
    trees = load_conllu(conllu_path, vocab)
    if not (len(sources) == len(targets) == len(trees)):
        raise AlignmentError(
            f"corpus misaligned: {len(sources)} source lines, {len(targets)} target "
            f"lines, {len(trees)} parsed sentences"
        )
    return [
        ExampleRecord.build(i, src, tgt, tree, fold_case, strip_punctuation)
        for i, (src, tgt, tree) in enumerate(zip(sources, targets, trees))
    ]


def load_test_inputs(
    source_path,
    conllu_path,
    vocab: LabelVocabulary,
    fold_case: bool = False,
    strip_punctuation: bool = False,
) -> list[ExampleRecord]:
    sources = _read_lines(source_path)
    trees = load_conllu(conllu_path, vocab)
    if len(sources) != len(trees):
        raise AlignmentError(
            f"test inputs misaligned: {len(sources)} source lines, {len(trees)} parsed sentences"
        )
    return [
        ExampleRecord.build(i, src, "", tree, fold_case, strip_punctuation)
        for i, (src, tree) in enumerate(zip(sources, trees))
    ]


def filter_by_length(
    records: Sequence[ExampleRecord], max_tokens: int = 120, count_target: bool = False
) -> tuple[list[ExampleRecord], int]:
    """Drop records longer than ``max_tokens`` (strictly more than).

    Counts source tokens; with ``count_target`` the target side is
    tokenized too and either side can disqualify.  Returns the kept
    records and the removed count.
    """
    kept = []
    for record in records:
        over = record.tokens.total > max_tokens
        if not over and count_target and record.target:
            over = len(tokenize(record.target)) > max_tokens
        if not over:
            kept.append(record)
    return kept, len(records) - len(kept)


def attach_polynomials(records: Sequence[ExampleRecord], vocab: LabelVocabulary) -> None:
    """Compute each record's polynomial in place (order-independent, pure)."""
    for record in records:
        if record.tree is None:
            raise DataError(f"record {record.id} has no dependency tree")
        record.poly = simplified_polynomial(record.tree, vocab)


# --- corpus cache ------------------------------------------------------------
#
# JSON-lines: a header with the format tag, version, tokenizer version and
# label vocabulary, then one record per line carrying text, ordered tokens
# and the tree skeleton.  Ingesting the same inputs rewrites the same bytes.

_CORPUS_FORMAT = "scoi-corpus"
_CORPUS_VERSION = 1


def write_corpus_cache(path, records: Iterable[ExampleRecord], vocab: LabelVocabulary) -> None:
    from .tokenizer import TOKENIZER_VERSION

    with atomic_write(path) as fh:
        header = {
            "format": _CORPUS_FORMAT,
            "version": _CORPUS_VERSION,
            "tokenizer_version": TOKENIZER_VERSION,
            "labels": vocab.labels,
        }
        fh.write(compact_json(header) + "\n")
        for record in records:
            row = {
                "id": record.id,
                "source": record.source,
                "target": record.target,
                "tokens": list(record.token_list),
                "labels": record.tree.labels,
                "parents": record.tree.parents,
            }
            fh.write(compact_json(row) + "\n")


def read_corpus_cache(path) -> tuple[LabelVocabulary, list[ExampleRecord]]:
    # Lines are decoded one by one, so that bytes that are not UTF-8 fail
    # on their own line.
    with open(path, "rb") as fh:
        header = read_header(fh, path, _CORPUS_FORMAT, _CORPUS_VERSION, "corpus cache", "labels")
        vocab = LabelVocabulary(header["labels"])
        records = []
        for line_no, line in enumerate(fh, start=2):
            try:
                row = json.loads(line.decode("utf-8"))
                record_id, labels, parents = row["id"], row["labels"], row["parents"]
                source, target, token_list = row["source"], row["target"], tuple(row["tokens"])
                tree = DependencyTree(labels, parents)
                check_labels(tree, len(vocab))
            except (MalformedTreeError, UnknownLabelError) as exc:
                raise DataError(f"{path}: record {record_id}: {exc}") from None
            except KeyError as exc:
                raise DataError(f"{path}: line {line_no}: record has no {exc} key") from None
            except (ValueError, TypeError) as exc:
                raise DataError(f"{path}: line {line_no}: malformed record ({exc})") from None
            records.append(
                ExampleRecord(
                    record_id, source, target, token_list, TokenBag.from_tokens(token_list), tree
                )
            )
    return vocab, records


def apply_polynomial_cache(
    records: Sequence[ExampleRecord], items: Sequence[tuple[int, Polynomial]]
) -> None:
    by_id = {rid: poly for rid, poly in items}
    for record in records:
        poly = by_id.get(record.id)
        if poly is None:
            raise DataError(f"polynomial cache is missing record {record.id}")
        record.poly = poly
