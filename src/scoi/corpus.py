"""Corpus assembly: parallel text + parses -> corpus columns, plus caches.

Line i of the source file, line i of the target file, and sentence block i
of the CoNLL-U file form record i; mismatched counts are a hard error.
Record ids are the original line indices and survive filtering.

Ingest builds no per-record object: it returns ``CorpusColumns``, the shape
``corpus.bin`` stores and ``select`` reads.  Each text file is a column of
its own bytes, split into lines as text mode splits them.  Tokens come from
the distinct whitespace chunks: each line's ``str.split()`` chunks are
interned into one dict as the lines are split, ``tokenize`` and
``apply_token_flags`` run once per distinct chunk, and the chunk ids expand
to token ids.  That is exact: ``tokenize`` treats each chunk on its own and
the flags each token on its own, so a line's tokens are its chunks' tokens
in order.  A chunk always yields at least one token, so only a line with no
chunk, or one whose tokens the flags all drop, has none.

Most chunks give exactly one token, and their occurrences map to it with one
int32 gather.  Only the occurrences of the other chunks, words with
punctuation attached or chunks the flags empty, are expanded.  No int64
array as long as the occurrences is built: on a large corpus such arrays
would set the cold build's memory peak.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .conllu import TreeColumns, load_conllu, take_offsets
from .coverage import TokenBag
from .errors import AlignmentError, DataError
from .manifest import CORPUS_CACHE_VERSION
from .retrieval import TokenColumn, intern_tokens
from .tokenizer import TOKENIZER_VERSION, apply_token_flags, tokenize
from .treepoly import (
    DependencyTree,
    LabelVocabulary,
    Polynomial,
    first_bad_tree,
    offsets_fit,
    offsets_from_sizes,
    read_cache,
    record_of,
    simplified_polynomial,
    simplified_term_counter,  # noqa: F401  unused; perfbench/traced.py wraps this name
    write_cache,
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


class CorpusColumns(NamedTuple):
    """A corpus as columns; row i is record ``ids[i]``.

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


def corpus_columns(records: Sequence[ExampleRecord], vocab: LabelVocabulary) -> CorpusColumns:
    """Records, each with a tree, packed as columns in their order; tokens
    are interned in first-seen order."""
    text = {}
    for side in ("source", "target"):
        encoded = [getattr(r, side).encode("utf-8") for r in records]
        text[side] = (np.frombuffer(b"".join(encoded), np.uint8),
                      offsets_from_sizes(list(map(len, encoded))))
    trees = TreeColumns.from_trees([r.tree for r in records])
    return CorpusColumns(vocab, intern_tokens(records), text, trees)


# --- ingest ------------------------------------------------------------------


def _read_text(path) -> tuple[np.ndarray, np.ndarray]:
    """A UTF-8 text file's lines as a column: line i's bytes, without its
    break, are ``blob[offsets[i]:offsets[i+1]]``.  Lines split as text mode
    splits them: ``\\r\\n`` and ``\\r`` end a line as ``\\n`` does, and a final
    break starts no line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {lineno}: not UTF-8") from None
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    if data and not data.endswith(b"\n"):
        ends = np.append(ends, len(data))
    offsets = np.zeros(len(ends) + 1, np.int64)
    offsets[1:] = ends - np.arange(len(ends))  # line i follows i breaks
    return np.frombuffer(data.replace(b"\n", b""), np.uint8), offsets


def _chunk_column(
    blob: np.ndarray, offsets: np.ndarray
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct ``str.split()`` chunks of a text column's rows in first-seen
    order, and each row's chunks as int32 ids into them, with int64 offsets.
    Rows are decoded one at a time, and only the distinct chunks are kept."""
    data, bounds = blob.tobytes(), offsets.tolist()
    index: dict[str, int] = {}
    ids, sizes = array("i"), array("q")
    for a, b in zip(bounds, bounds[1:]):
        chunks = data[a:b].decode("utf-8").split()
        sizes.append(len(chunks))
        ids.extend([index.setdefault(chunk, len(index)) for chunk in chunks])
    return list(index), np.frombuffer(ids, np.int32), offsets_from_sizes(sizes)


def _expand_chunks(
    chunk_ids: np.ndarray, line_offsets: np.ndarray, chunk_offsets: np.ndarray,
    tokens: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Each line's int64 token offsets and, given the chunks' int32 ``tokens``,
    the lines' tokens.  Line i holds chunk occurrences
    ``line_offsets[i]:line_offsets[i+1]``, and an occurrence of chunk c stands
    for ``tokens[chunk_offsets[c]:chunk_offsets[c+1]]``.  Every array as long
    as the occurrences is int32 or bool (see the module docstring)."""
    odd = np.flatnonzero((np.diff(chunk_offsets) != 1)[chunk_ids])
    entries, taken = take_offsets(chunk_offsets, chunk_ids[odd])
    # gained[i]: the tokens the occurrences before odd[i] add or drop.
    gained = taken - np.arange(len(taken))
    offsets = line_offsets + gained[odd.searchsorted(line_offsets)]
    if tokens is None:
        return offsets, None
    # The one-token occurrences' tokens, in order (the pad stands for chunks
    # without tokens, whose occurrences are odd); odd occurrence i's tokens go
    # in after the odd[i] - i of them that come before it.
    single = np.append(tokens, np.int32(0))[chunk_offsets[:-1]][np.delete(chunk_ids, odd)]
    after = np.repeat(odd - np.arange(len(odd)), np.diff(taken))
    return offsets, np.insert(single, after, tokens[entries])


def _tokenize_lines(
    path, text: tuple[np.ndarray, np.ndarray], fold_case: bool, strip_punctuation: bool
) -> TokenColumn:
    """The lines' tokens, tokenized chunk by distinct chunk; row i is record i."""
    chunks, chunk_ids, line_offsets = _chunk_column(*text)
    names: dict[str, int] = {}
    ids, sizes = array("i"), array("q")
    for chunk in chunks:
        tokens = apply_token_flags(tokenize(chunk), fold_case, strip_punctuation)
        sizes.append(len(tokens))
        ids.extend([names.setdefault(token, len(names)) for token in tokens])
    offsets, token_ids = _expand_chunks(
        chunk_ids, line_offsets, offsets_from_sizes(sizes), np.frombuffer(ids, np.int32)
    )
    empty = np.flatnonzero(np.diff(offsets) == 0)
    if empty.size:
        line = int(empty[0])
        flagged = line_offsets[line] < line_offsets[line + 1]
        reason = "no tokens left after token flags" if flagged else "no tokens"
        raise DataError(f"{path}: line {line + 1}: {reason}")
    n = len(line_offsets) - 1
    return TokenColumn(np.arange(n, dtype=np.int64), offsets, token_ids, list(names))


def load_parallel_corpus(
    source_path,
    target_path,
    conllu_path,
    vocab: LabelVocabulary,
    fold_case: bool = False,
    strip_punctuation: bool = False,
) -> CorpusColumns:
    source = _read_text(source_path)
    target = _read_text(target_path)
    trees = load_conllu(conllu_path, vocab)
    n_source, n_target = len(source[1]) - 1, len(target[1]) - 1
    if not (n_source == n_target == len(trees)):
        raise AlignmentError(
            f"corpus misaligned: {n_source} source lines, {n_target} target "
            f"lines, {len(trees)} parsed sentences"
        )
    tokens = _tokenize_lines(source_path, source, fold_case, strip_punctuation)
    return CorpusColumns(vocab, tokens, {"source": source, "target": target}, trees)


def load_test_inputs(
    source_path,
    conllu_path,
    vocab: LabelVocabulary,
    fold_case: bool = False,
    strip_punctuation: bool = False,
) -> CorpusColumns:
    source = _read_text(source_path)
    trees = load_conllu(conllu_path, vocab)
    n = len(source[1]) - 1
    if n != len(trees):
        raise AlignmentError(
            f"test inputs misaligned: {n} source lines, {len(trees)} parsed sentences"
        )
    tokens = _tokenize_lines(source_path, source, fold_case, strip_punctuation)
    target = (np.zeros(0, np.uint8), np.zeros(n + 1, np.int64))
    return CorpusColumns(vocab, tokens, {"source": source, "target": target}, trees)


def _token_counts(text: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Each row's ``tokenize`` count, tokenized chunk by distinct chunk; a row
    without chunks counts 0."""
    chunks, chunk_ids, line_offsets = _chunk_column(*text)
    per_chunk = np.fromiter(map(len, map(tokenize, chunks)), np.int64, len(chunks))
    return np.diff(_expand_chunks(chunk_ids, line_offsets, offsets_from_sizes(per_chunk))[0])


def _compress(keep: np.ndarray, offsets: np.ndarray, *columns: np.ndarray) -> tuple:
    """The offsets and entries of the rows ``keep`` marks, in order."""
    sizes = np.diff(offsets)
    entries = np.repeat(keep, sizes)
    return (offsets_from_sizes(sizes[keep]), *(column[entries] for column in columns))


def filter_by_length(
    columns: CorpusColumns, max_tokens: int = 120, count_target: bool = False
) -> tuple[CorpusColumns, int]:
    """Drop records longer than ``max_tokens`` (strictly more than).

    Counts source tokens; with ``count_target`` the target side is
    tokenized too and either side can disqualify.  Returns the kept
    columns, tokens re-interned in first-seen order, and the removed count.
    """
    tokens = columns.tokens
    over = np.diff(tokens.offsets) > max_tokens
    if count_target:
        over |= _token_counts(columns.text["target"]) > max_tokens
    removed = int(over.sum())
    if not removed:
        return columns, 0
    keep = ~over
    token_offsets, kept = _compress(keep, tokens.offsets, tokens.token_ids)
    # Each kept token's first position; ordered by it, the tokens are in
    # first-seen order.  A scatter, not a stable sort of every entry.
    first = np.full(len(tokens.names), len(kept))
    np.minimum.at(first, kept, np.arange(len(kept)))
    seen = np.flatnonzero(first < len(kept))
    order = seen[np.argsort(first[seen])]
    renumber = np.zeros(len(tokens.names), np.int32)
    renumber[order] = np.arange(len(order), dtype=np.int32)
    text = {}
    for side, (blob, offsets) in columns.text.items():
        offsets, blob = _compress(keep, offsets, blob)
        text[side] = (blob, offsets)
    trees = columns.trees
    node_offsets, labels, parents = _compress(keep, trees.offsets, trees.labels, trees.parents)
    token_column = TokenColumn(tokens.record_ids[keep], token_offsets, renumber[kept],
                               [tokens.names[i] for i in order.tolist()])
    return columns._replace(
        tokens=token_column, text=text, trees=TreeColumns(labels, parents, node_offsets)
    ), removed


def attach_polynomials(records: Sequence[ExampleRecord], vocab: LabelVocabulary) -> None:
    """Compute each record's polynomial in place (order-independent, pure)."""
    for record in records:
        tree = record.tree
        if tree is None:
            raise DataError(f"record {record.id} has no dependency tree")
        record.poly = simplified_polynomial(tree, vocab)


# --- corpus cache ------------------------------------------------------------
#
# A ``treepoly.write_cache`` file whose header holds the tokenizer version, the
# label vocabulary and the token list in first-seen order, with the segments of
# _SEGMENTS in that order: the record ids, then per column its int64 offsets
# (record i owns entries offsets[i]:offsets[i+1]) and its entries: source and
# target UTF-8 bytes, token ids into the header's list, and the tree's labels
# and parents, which share the node offsets.  Rewrites are byte-identical.

_CORPUS_FORMAT = "scoi-corpus"
_SEGMENTS = {  # name -> dtype
    "ids": "<i8", "source_offsets": "<i8", "source": "u1", "target_offsets": "<i8",
    "target": "u1", "token_offsets": "<i8", "tokens": "<i4", "node_offsets": "<i8",
    "labels": "<i4", "parents": "<i4",
}
_OFFSETS = {"source": "source_offsets", "target": "target_offsets", "tokens": "token_offsets",
            "labels": "node_offsets", "parents": "node_offsets"}


def write_corpus_cache(path, columns: CorpusColumns) -> None:
    """Write the columns as they are; their tokens must be in first-seen order."""
    tokens, trees = columns.tokens, columns.trees
    cols = {"ids": tokens.record_ids, "token_offsets": tokens.offsets, "tokens": tokens.token_ids,
            "node_offsets": trees.offsets, "labels": trees.labels, "parents": trees.parents}
    for side, (blob, offsets) in columns.text.items():
        cols[side], cols[_OFFSETS[side]] = blob, offsets
    header = {"format": _CORPUS_FORMAT, "version": CORPUS_CACHE_VERSION,
              "tokenizer_version": TOKENIZER_VERSION, "labels": columns.vocab.labels,
              "tokens": tokens.names}
    write_cache(path, header, (cols[name].astype(dtype, copy=False)
                               for name, dtype in _SEGMENTS.items()))


def read_corpus_columns(path, keep_trees: bool = True) -> CorpusColumns:
    """The cache's columns, every tree validated here, in bulk.  Without
    ``keep_trees`` the trees are validated and dropped: ``select`` reads none."""
    header, cols = read_cache(path, _CORPUS_FORMAT, CORPUS_CACHE_VERSION, "corpus cache",
                              ("labels", "tokens"), _SEGMENTS)
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
        if not offsets_fit(cols[offsets], len(ids), len(cols[name])):
            raise DataError(f"{path}: {name} offsets do not match the {len(ids)} record ids "
                            f"and {len(cols[name])} entries")

    def fail(name: str, entry: int, reason: str):
        raise DataError(f"{path}: record {record_of(ids, cols[_OFFSETS[name]], entry)}: {reason}")

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
