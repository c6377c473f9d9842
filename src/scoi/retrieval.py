"""Okapi BM25 pre-selection over the example database.

Implements the inverted index, top-k scoring used to shortlist candidates
for every test input (100 by default), and the BM25-weighted word vectors
that the DPP selection mode builds its diversity kernel from.

Scoring is fully in-house so rankings are reproducible: idf uses
ln((N - df + 0.5) / (df + 0.5) + 1), ties break by ascending example id,
and postings are stored as numpy arrays so a query over a 10k-document
corpus stays in the low milliseconds.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from .config import Bm25Params
from .conllu import take_offsets
from .coverage import TokenBag
from .errors import DataError
from .manifest import atomic_write, compact_json, read_header

if TYPE_CHECKING:
    from .corpus import ExampleRecord


class _Denominators(dict):
    """token -> ``tfs + norm[rows]`` of its posting, filled on first lookup."""

    def __init__(self, postings: dict[str, tuple[np.ndarray, np.ndarray]], norm: np.ndarray):
        super().__init__()
        self.postings, self.norm = postings, norm

    def __missing__(self, token: str) -> np.ndarray:
        rows, tfs = self.postings[token]
        self[token] = found = tfs + self.norm[rows]
        return found


class InvertedIndex:
    """Immutable BM25 index: postings, per-document lengths, corpus stats.

    Documents are kept in ascending example-id order; postings store
    positions into that order ("rows") plus term frequencies, both as numpy
    arrays.  Rebuilding from the same corpus is bit-identical.
    """

    __slots__ = ("ids", "lengths", "avgdl", "postings", "doc_count", "_denominators")

    def __init__(
        self,
        ids: np.ndarray,
        lengths: np.ndarray,
        postings: dict[str, tuple[np.ndarray, np.ndarray]],
    ):
        self.ids = ids
        self.lengths = lengths
        self.avgdl = float(lengths.mean())
        self.postings = postings
        self.doc_count = int(ids.shape[0])
        self._denominators: dict[Bm25Params, dict[str, np.ndarray]] = {}

    def rows(self, ids: Sequence[int]) -> np.ndarray:
        """The row of each document id; every id must be indexed."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = self.ids.searchsorted(ids)
        if not np.array_equal(self.ids.take(rows, mode="clip"), ids):
            raise ValueError("a document id is not in the index")
        return rows

    def denominators(self, params: Bm25Params) -> dict[str, np.ndarray]:
        """Per token, the BM25 denominator ``tf + k1 * (1 - b + b * dl / avgdl)``
        of each of its postings, kept for ``params``.  A token's array is
        computed on first use: a query touches few tokens, and the most
        frequent, whose postings are the longest, recur in most queries."""
        found = self._denominators.get(params)
        if found is None:
            k1, b = params.k1, params.b
            norm = k1 * (1.0 - b + b * (self.lengths / self.avgdl))
            found = self._denominators[params] = _Denominators(self.postings, norm)
        return found

    def df(self, token: str) -> int:
        posting = self.postings.get(token)
        return 0 if posting is None else int(posting[0].shape[0])

    def idf(self, token: str) -> float:
        df = self.df(token)
        n = self.doc_count
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def __repr__(self) -> str:
        return f"InvertedIndex({self.doc_count} docs, {len(self.postings)} tokens)"


class TokenColumn(NamedTuple):
    """Records' token lists as one column of ids into ``names``.

    Record ``record_ids[i]`` owns ``token_ids[offsets[i]:offsets[i+1]]``;
    ``names`` lists the distinct tokens in first-seen order, record by
    record, which is the order of the corpus cache's token list and of the
    index's postings.
    """

    record_ids: np.ndarray  # int64
    offsets: np.ndarray  # int64, len(record_ids) + 1
    token_ids: np.ndarray  # int32
    names: list[str]

    def name_ids(self) -> dict[str, int]:
        """Each token name mapped to its id."""
        return dict(zip(self.names, range(len(self.names))))


def intern_tokens(records: Sequence["ExampleRecord"]) -> TokenColumn:
    """The records' ``token_list``s as a ``TokenColumn``, in record order."""
    token_lists = [r.token_list for r in records]
    flat = list(chain.from_iterable(token_lists))
    names = list(dict.fromkeys(flat))
    index = dict(zip(names, range(len(names))))
    offsets = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, token_lists), np.int64, len(records)), out=offsets[1:])
    return TokenColumn(
        np.fromiter((r.id for r in records), np.int64, len(records)),
        offsets,
        np.fromiter(map(index.__getitem__, flat), np.int32, len(flat)),
        names,
    )


def index_from_tokens(column: TokenColumn) -> InvertedIndex:
    """Index a ``TokenColumn`` whose record ids ascend, as ``intern_tokens``
    gives it for records in id order.

    Row i is record i.  All postings come from one ``np.unique`` over the
    (token id, row) pairs: rows ascend within a posting, and postings follow
    ``names``, so the index equals ``build_index`` of the same records.
    """
    n = len(column.record_ids)
    if not n:
        raise DataError("cannot build an index over an empty corpus")
    lengths = np.diff(column.offsets)
    if lengths.min() < 1:
        raise DataError("every indexed document needs at least one token")
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    pairs, tfs = np.unique(column.token_ids.astype(np.int64) * n + rows, return_counts=True)
    token_of, rows = np.divmod(pairs, n)
    bounds = token_of.searchsorted(np.arange(len(column.names) + 1)).tolist()
    tfs = tfs.astype(np.float64)
    postings = {
        name: (rows[a:b], tfs[a:b])
        for name, a, b in zip(column.names, bounds[:-1], bounds[1:])
    }
    return InvertedIndex(column.record_ids, lengths, postings)


def build_index(corpus: Sequence["ExampleRecord"]) -> InvertedIndex:
    """Index a corpus by its source-side tokens."""
    return index_from_tokens(intern_tokens(sorted(corpus, key=lambda r: r.id)))


def bm25_topk(
    index: InvertedIndex,
    query: TokenBag,
    k: int = 100,
    params: Bm25Params = Bm25Params(),
) -> list[tuple[int, float]]:
    """Top-k documents by Okapi BM25 score, ties by ascending example id.

    Documents sharing no token with the query score zero and are never
    returned; a query with no corpus overlap yields an empty list (callers
    fall back to a random fill).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    k1 = params.k1
    denominators = index.denominators(params)
    scores = np.zeros(index.doc_count, dtype=np.float64)
    for token, qtf in query.counts.items():
        posting = index.postings.get(token)
        if posting is None:
            continue
        rows, tfs = posting
        idf = index.idf(token)
        scores[rows] += qtf * idf * (tfs * (k1 + 1.0)) / denominators[token]
    hit_rows = np.nonzero(scores > 0.0)[0]
    n_hits = hit_rows.shape[0]
    if n_hits == 0:
        return []
    hit_scores = scores[hit_rows]
    if n_hits > k:
        # Only hits scoring at least the k-th best can reach the top k; ties
        # at that score stay in, so the id tie-break below sees all of them.
        kth = np.partition(hit_scores, n_hits - k)[n_hits - k]
        keep = hit_scores >= kth
        hit_rows = hit_rows[keep]
        hit_scores = hit_scores[keep]
    hit_ids = index.ids[hit_rows]
    order = np.lexsort((hit_ids, -hit_scores))[:k]
    return list(zip(hit_ids[order].tolist(), hit_scores[order].tolist()))


def token_table(
    column: TokenColumn, name_ids: Mapping[str, int], rows: np.ndarray, tokens: Sequence[str]
) -> np.ndarray:
    """int64 (records at ``rows``, distinct ``tokens``): each record's count of
    each token, counted from the records' token ids with one ``bincount``.
    ``name_ids`` is ``column.name_ids()``, which callers build once."""
    n, m = len(rows), len(tokens)
    # The table column of each token id; ids of no token in ``tokens`` count in column m.
    column_of = np.full(len(column.names), m, dtype=np.int64)
    for j, token in enumerate(tokens):
        if token in name_ids:
            column_of[name_ids[token]] = j
    entries, offsets = take_offsets(column.offsets, rows)
    cells = np.repeat(np.arange(0, n * (m + 1), m + 1), np.diff(offsets))
    cells += column_of[column.token_ids[entries]]
    table = np.bincount(cells, minlength=n * (m + 1)).reshape(n, m + 1)
    return np.ascontiguousarray(table[:, :m], dtype=np.int64)


def word_matrix(
    rows: np.ndarray,
    counts: np.ndarray,
    query: TokenBag,
    index: InvertedIndex,
    params: Bm25Params = Bm25Params(),
) -> np.ndarray:
    """BM25-weighted word vectors for the DPP diversity kernel.

    Row i belongs to the document at index row ``rows[i]``, column j to the
    query's j-th distinct token; ``counts`` is their ``token_table``.
    W[i, j] = idf_j * tf_ij * (k1 + 1) / (tf_ij + k1 * (1 - b + b * l_i))
    with l_i the document length over the corpus average document length.
    idf comes from the corpus-level index statistics.
    """
    if not len(rows):
        raise ValueError("word_matrix requires at least one candidate")
    idfs = np.array([index.idf(t) for t in query.counts], dtype=np.float64)
    k1, b = params.k1, params.b
    denom_norm = k1 * (1.0 - b + b * (index.lengths[rows] / index.avgdl))
    tf = counts.astype(np.float64)
    return idfs * (tf * (k1 + 1.0)) / (tf + denom_norm[:, None])


# --- index persistence -------------------------------------------------------
#
# The pipeline saves no index: ``select`` derives it from the corpus cache.
# One JSON header line (format tag, version, token list in postings order),
# then five raw .npy segments: ids, lengths, posting offsets, concatenated
# posting rows, concatenated posting tfs.  Every byte is deterministic, so
# the same index always saves to the same digest.

_INDEX_FORMAT = "scoi-bm25"
_INDEX_VERSION = 1


def save_index(path, index: InvertedIndex) -> None:
    tokens = list(index.postings)
    offsets = np.zeros(len(tokens) + 1, dtype=np.int64)
    for i, token in enumerate(tokens):
        offsets[i + 1] = offsets[i] + index.postings[token][0].shape[0]
    rows = np.concatenate([index.postings[t][0] for t in tokens]) if tokens else np.zeros(0, np.int64)
    tfs = np.concatenate([index.postings[t][1] for t in tokens]) if tokens else np.zeros(0, np.float64)
    header = {"format": _INDEX_FORMAT, "version": _INDEX_VERSION, "tokens": tokens}
    with atomic_write(path, "wb") as fh:
        fh.write(compact_json(header).encode("utf-8"))
        fh.write(b"\n")
        np.save(fh, index.ids)
        np.save(fh, index.lengths)
        np.save(fh, offsets)
        np.save(fh, rows)
        np.save(fh, tfs)


def load_index(path) -> InvertedIndex:
    with open(path, "rb") as fh:
        header = read_header(fh, path, _INDEX_FORMAT, _INDEX_VERSION, "BM25 index file", "tokens")
        try:
            ids = np.load(fh)
            lengths = np.load(fh)
            offsets = np.load(fh)
            rows = np.load(fh)
            tfs = np.load(fh)
        except (ValueError, EOFError) as exc:
            raise DataError(f"{path}: corrupt array segment ({exc})") from None
    tokens = header["tokens"]
    if offsets.shape != (len(tokens) + 1,):
        raise DataError(f"{path}: posting offsets do not match the {len(tokens)} tokens")
    postings = {
        token: (rows[offsets[i]:offsets[i + 1]], tfs[offsets[i]:offsets[i + 1]])
        for i, token in enumerate(tokens)
    }
    return InvertedIndex(ids, lengths, postings)
