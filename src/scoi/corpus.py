"""Corpus assembly: parallel text + parses -> example records, plus caches.

A record couples one source sentence with its translation, source-side
tokens, dependency tree, and (once built) its polynomial.  Line i of the
source file, line i of the target file, and sentence block i of the
CoNLL-U file form record i; mismatched counts are a hard error.  Record
ids are the original line indices and survive filtering.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .conllu import TreeColumns, load_conllu, offsets_from_sizes
from .coverage import TokenBag
from .errors import AlignmentError, DataError
from .manifest import atomic_write, compact_json, read_header
from .retrieval import TokenColumn, intern_tokens
from .tokenizer import apply_token_flags, tokenize
from .treepoly import (
    DependencyTree,
    LabelVocabulary,
    Polynomial,
    first_bad_tree,
    simplified_polynomial,
    simplified_term_counter,  # noqa: F401  unused; perfbench/traced.py wraps this name
)


class ExampleRecord:
    """One corpus entry; ``tokens``/``tree``/``poly`` are source-side.

    ``tokens``, the bag of ``token_list``, is built on first access unless
    given: ``build`` and ``select`` count corpus tokens from the token ids.
    """

    tree: DependencyTree | None = None

    def __init__(
        self,
        id: int,
        source: str,
        target: str,
        token_list: tuple[str, ...],
        tokens: TokenBag | None = None,
        tree: DependencyTree | None = None,
        poly: Polynomial | None = None,
    ):
        self.id = id
        self.source = source
        self.target = target
        self.token_list = token_list
        if tokens is not None:
            self.tokens = tokens
        if tree is not None:
            self.tree = tree
        self.poly = poly

    tokens = cached_property(lambda self: TokenBag.from_tokens(self.token_list))


class _ParsedRecord(ExampleRecord):
    """A record read at ingest.  Record i's tree is row i of the columns the
    CoNLL-U file was parsed into; it is built on each access and not kept."""

    def __init__(self, id: int, source: str, target: str, token_list: tuple[str, ...],
                 trees: TreeColumns):
        super().__init__(id, source, target, token_list)
        self.trees = trees

    tree = property(lambda self: self.trees[self.id])


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, read as text mode would split them."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {lineno}: not UTF-8") from None
    if lines[-1] == "":
        lines.pop()
    return lines


def _parsed_records(
    sources: list[str], targets: list[str], trees: TreeColumns,
    fold_case: bool, strip_punctuation: bool,
) -> list[ExampleRecord]:
    records = []
    for i, (source, target) in enumerate(zip(sources, targets)):
        tokens = apply_token_flags(tokenize(source), fold_case, strip_punctuation)
        if not tokens:
            raise DataError(f"record {i}: no tokens left after token flags")
        records.append(_ParsedRecord(i, source, target, tuple(tokens), trees))
    return records


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
    return _parsed_records(sources, targets, trees, fold_case, strip_punctuation)


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
    return _parsed_records(sources, [""] * len(sources), trees, fold_case, strip_punctuation)


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
        over = len(record.token_list) > max_tokens
        if not over and count_target and record.target:
            over = len(tokenize(record.target)) > max_tokens
        if not over:
            kept.append(record)
    return kept, len(records) - len(kept)


def attach_polynomials(records: Sequence[ExampleRecord], vocab: LabelVocabulary) -> None:
    """Compute each record's polynomial in place (order-independent, pure)."""
    for record in records:
        tree = record.tree
        if tree is None:
            raise DataError(f"record {record.id} has no dependency tree")
        record.poly = simplified_polynomial(tree, vocab)


# --- corpus cache ------------------------------------------------------------
#
# One JSON header line (format tag, version, tokenizer version, label
# vocabulary, token list in first-seen order), then the .npy segments of
# _SEGMENTS in that order: the record ids, then per column its int64 offsets
# (record i owns entries offsets[i]:offsets[i+1]) and its entries: source and
# target UTF-8 bytes, token ids into the header's list, and the tree's labels
# and parents, which share the node offsets.  Rewrites are byte-identical.

_CORPUS_FORMAT = "scoi-corpus"
CORPUS_CACHE_VERSION = 2
_SEGMENTS = {  # name -> dtype
    "ids": "<i8", "source_offsets": "<i8", "source": "u1", "target_offsets": "<i8",
    "target": "u1", "token_offsets": "<i8", "tokens": "<i4", "node_offsets": "<i8",
    "labels": "<i4", "parents": "<i4",
}
_OFFSETS = {"source": "source_offsets", "target": "target_offsets", "tokens": "token_offsets",
            "labels": "node_offsets", "parents": "node_offsets"}


def tree_columns(records: Sequence[ExampleRecord]) -> TreeColumns:
    """The records' trees as columns.  Rows of one parsed file are copied as
    they are, without building a tree."""
    trees = getattr(records[0], "trees", None) if records else None
    if trees is not None and all(getattr(r, "trees", None) is trees for r in records):
        return trees.take(np.fromiter((r.id for r in records), np.int64, len(records)))
    return TreeColumns.from_trees([r.tree for r in records])


def write_corpus_cache(
    path, records: Sequence[ExampleRecord], vocab: LabelVocabulary
) -> tuple[np.ndarray, TreeColumns]:
    """Write the cache; tokens are interned in first-seen order.  Returns the
    record ids and the tree columns written, for the polynomial stage."""
    from .tokenizer import TOKENIZER_VERSION

    tokens = intern_tokens(records)
    cols = {"ids": tokens.record_ids, "token_offsets": tokens.offsets, "tokens": tokens.token_ids}
    for side in ("source", "target"):
        encoded = [getattr(r, side).encode("utf-8") for r in records]
        cols[_OFFSETS[side]] = offsets_from_sizes(list(map(len, encoded)))
        cols[side] = np.frombuffer(b"".join(encoded), np.uint8)
    trees = tree_columns(records)
    cols.update(node_offsets=trees.offsets, labels=trees.labels, parents=trees.parents)
    header = {"format": _CORPUS_FORMAT, "version": CORPUS_CACHE_VERSION,
              "tokenizer_version": TOKENIZER_VERSION, "labels": vocab.labels,
              "tokens": tokens.names}
    with atomic_write(path, "wb") as fh:
        fh.write(compact_json(header).encode("utf-8") + b"\n")
        for name, dtype in _SEGMENTS.items():
            np.save(fh, cols[name].astype(dtype, copy=False))
    return tokens.record_ids, trees


class CorpusColumns(NamedTuple):
    """A corpus cache's validated columns; row i is record ``ids[i]``.

    ``text`` maps ``"source"`` and ``"target"`` to their UTF-8 bytes and
    int64 offsets: row i owns bytes ``offsets[i]:offsets[i+1]``.
    """

    vocab: LabelVocabulary
    tokens: TokenColumn
    text: dict[str, tuple[np.ndarray, np.ndarray]]
    trees: TreeColumns | None

    @property
    def ids(self) -> np.ndarray:
        return self.tokens.record_ids

    def decode(self, side: str, row: int) -> str:
        blob, offsets = self.text[side]
        return blob[offsets[row]:offsets[row + 1]].tobytes().decode("utf-8")

    def token_list(self, row: int) -> tuple[str, ...]:
        column = self.tokens
        ids = column.token_ids[column.offsets[row]:column.offsets[row + 1]]
        return tuple(column.names[i] for i in ids.tolist())

    def record(self, row: int, poly: Polynomial | None = None) -> ExampleRecord:
        """Row ``row`` as a record, with its tree when the trees were kept."""
        return ExampleRecord(
            int(self.ids[row]), self.decode("source", row), self.decode("target", row),
            self.token_list(row), tree=None if self.trees is None else self.trees[row], poly=poly,
        )


def read_corpus_columns(path, keep_trees: bool = True) -> CorpusColumns:
    """The cache's columns, every tree validated here, in bulk.  Without
    ``keep_trees`` the trees are validated and dropped: ``select`` reads none."""
    with open(path, "rb") as fh:
        header = read_header(
            fh, path, _CORPUS_FORMAT, CORPUS_CACHE_VERSION, "corpus cache", "labels"
        )
        if not isinstance(header.get("tokens"), list):
            raise DataError(f"{path}: header has no tokens list")
        try:
            cols = {name: np.load(fh, allow_pickle=False) for name in _SEGMENTS}
        except (ValueError, EOFError) as exc:
            raise DataError(f"{path}: corrupt array segment ({exc})") from None
    for name, dtype in _SEGMENTS.items():
        if cols[name].ndim != 1 or cols[name].dtype != dtype:
            raise DataError(f"{path}: segment {name} is not a one-dimensional {dtype} array")
    ids = cols["ids"]
    # select looks records up by id with a binary search.
    bad = np.flatnonzero(np.diff(ids) <= 0)
    if bad.size:
        raise DataError(
            f"{path}: record {ids[bad[0] + 1]}: id is not above the id {ids[bad[0]]} before it"
        )
    for name, offsets in _OFFSETS.items():
        bounds, size = cols[offsets], len(cols[name])
        if (bounds.shape != (len(ids) + 1,) or bounds[0] != 0 or bounds[-1] != size
                or (np.diff(bounds) < 0).any()):
            raise DataError(
                f"{path}: {name} offsets do not match the {len(ids)} record ids and {size} entries"
            )

    def fail(name: str, entry: int, reason: str):
        record = ids[np.searchsorted(cols[_OFFSETS[name]], entry, side="right") - 1]
        raise DataError(f"{path}: record {record}: {reason}")

    n_tokens = len(header["tokens"])
    bad = np.flatnonzero((cols["tokens"] < 0) | (cols["tokens"] >= n_tokens))
    if bad.size:
        token = cols["tokens"][bad[0]]
        fail("tokens", bad[0], f"token id {token} outside the token list of size {n_tokens}")
    # Ingest refuses a record without tokens; the BM25 index cannot hold one.
    bad = np.flatnonzero(np.diff(cols["token_offsets"]) == 0)
    if bad.size:
        raise DataError(f"{path}: record {ids[bad[0]]}: no tokens")
    for side in ("source", "target"):
        blob, starts = cols[side], cols[_OFFSETS[side]][:-1]
        starts = starts[starts < len(blob)]
        # A record that starts on a continuation byte cuts a character in two;
        # the record holding its first byte is the first one broken.
        bad = (starts[(blob[starts] & 0xC0) == 0x80][:1] - 1).tolist()
        try:
            blob.tobytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            bad.append(exc.start)
        if bad:
            fail(side, min(bad), f"{side} is not UTF-8")
    vocab = LabelVocabulary(header["labels"])
    bad_tree = first_bad_tree(cols["labels"], cols["parents"], cols["node_offsets"], len(vocab))
    if bad_tree is not None:
        raise DataError(f"{path}: record {ids[bad_tree[0]]}: {bad_tree[1]}")
    trees = TreeColumns(cols["labels"], cols["parents"], cols["node_offsets"])
    return CorpusColumns(
        vocab,
        TokenColumn(ids, cols["token_offsets"], cols["tokens"], header["tokens"]),
        {side: (cols[side], cols[_OFFSETS[side]]) for side in ("source", "target")},
        trees if keep_trees else None,
    )


def read_corpus_cache(path) -> tuple[LabelVocabulary, list[ExampleRecord], TokenColumn]:
    """The vocabulary, the records and their token column of ``read_corpus_columns``."""
    columns = read_corpus_columns(path)
    return columns.vocab, [columns.record(row) for row in range(len(columns.ids))], columns.tokens


def apply_polynomial_cache(
    records: Sequence[ExampleRecord], items: Sequence[tuple[int, Polynomial]]
) -> None:
    by_id = {rid: poly for rid, poly in items}
    for record in records:
        poly = by_id.get(record.id)
        if poly is None:
            raise DataError(f"polynomial cache is missing record {record.id}")
        record.poly = poly
