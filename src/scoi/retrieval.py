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

from .columns import offsets_fit, offsets_from_sizes, read_cache, take_offsets, write_cache
from .config import Bm25Params
from .coverage import TokenBag
from .errors import DataError

if TYPE_CHECKING:
    from .corpus import ExampleRecord


# A token whose posting covers more than doc_count / _DENSE_DIVISOR documents
# adds a cached dense vector to the scores instead of scattering into them.
# Over 20k documents (2-vCPU host) a dense add took 6 µs and a scatter-add
# 9.5, 16 and 51 µs for postings of 2.5k, 5k and 18k entries.  On ingest-20k
# a quarter kept the query time of an eighth with 38 vectors, not 60.
_DENSE_DIVISOR = 4


class InvertedIndex:
    """Immutable BM25 index: flat postings, per-document lengths, corpus stats.

    Documents are kept in ascending example-id order.  Token ``t`` (its name
    is ``names[t]``, and ``name_ids`` maps the name back) owns the postings
    ``bounds[t]:bounds[t + 1]`` of ``doc_rows``, positions into that order,
    and of ``tfs``, term frequencies; rows ascend within a posting.
    ``dense_tokens`` holds the tokens in more than doc_count / _DENSE_DIVISOR
    documents.  Rebuilding from the same corpus is bit-identical.
    """

    __slots__ = ("ids", "lengths", "avgdl", "doc_count", "names", "name_ids", "bounds",
                 "doc_rows", "tfs", "dense_tokens", "_scorers")

    def __init__(self, ids: np.ndarray, lengths: np.ndarray, names: list[str],
                 bounds: np.ndarray, doc_rows: np.ndarray, tfs: np.ndarray):
        self.ids, self.lengths, self.names = ids, lengths, names
        self.bounds, self.doc_rows, self.tfs = bounds, doc_rows, tfs
        self.avgdl = float(lengths.mean())
        self.doc_count = int(ids.shape[0])
        self.name_ids = dict(zip(names, range(len(names))))
        dense = np.diff(bounds) * _DENSE_DIVISOR > self.doc_count
        self.dense_tokens = set(np.flatnonzero(dense).tolist())
        self._scorers: dict[Bm25Params, Scorer] = {}

    def rows(self, ids: Sequence[int]) -> np.ndarray:
        """The row of each document id; every id must be indexed."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = self.ids.searchsorted(ids)
        if not np.array_equal(self.ids.take(rows, mode="clip"), ids):
            raise ValueError("a document id is not in the index")
        return rows

    def posting(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of token ``t``'s document rows and term frequencies."""
        a, b = self.bounds[t:t + 2].tolist()
        return self.doc_rows[a:b], self.tfs[a:b]

    def scorer(self, params: Bm25Params) -> "Scorer":
        """The index's ``Scorer`` for ``params``, made on first use."""
        found = self._scorers.get(params)
        if found is None:
            found = self._scorers[params] = Scorer(self, params)
        return found

    def df(self, token: str) -> int:
        t = self.name_ids.get(token)
        return 0 if t is None else int(self.bounds[t + 1] - self.bounds[t])

    def idf(self, token: str) -> float:
        return self._idf(self.df(token))

    def _idf(self, df: int) -> float:
        n = self.doc_count
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def __repr__(self) -> str:
        return f"InvertedIndex({self.doc_count} docs, {len(self.names)} tokens)"


class Scorer:
    """An index's BM25 contributions under one ``Bm25Params``, kept as queries
    ask for them: ``denominators`` holds ``tf + norm`` of each posting of a
    token that is not dense, and ``dense`` a dense token's contribution for
    one query count as a vector over every document."""

    __slots__ = ("index", "k1", "norm", "denominators", "dense")

    def __init__(self, index: InvertedIndex, params: Bm25Params):
        k1, b = params.k1, params.b
        self.index, self.k1 = index, k1
        self.norm = k1 * (1.0 - b + b * (index.lengths / index.avgdl))
        self.denominators: dict[int, np.ndarray] = {}
        self.dense: dict[tuple[int, int], np.ndarray] = {}

    def contribution(self, t: int, qtf: int) -> tuple[np.ndarray, np.ndarray]:
        """Token ``t``'s rows and its score in each, for a query holding it
        ``qtf`` times: ``qtf * idf * tf * (k1 + 1) / (tf + norm)``."""
        index = self.index
        rows, tfs = index.posting(t)
        den = self.denominators.get(t)
        if den is None:
            den = tfs + self.norm[rows]
            if t not in index.dense_tokens:
                self.denominators[t] = den
        return rows, qtf * index._idf(rows.shape[0]) * (tfs * (self.k1 + 1.0)) / den

    def dense_contribution(self, t: int, qtf: int) -> np.ndarray:
        """``contribution`` scattered into zeros, one entry per document, kept
        per ``(t, qtf)``."""
        found = self.dense.get((t, qtf))
        if found is None:
            rows, values = self.contribution(t, qtf)
            found = self.dense[t, qtf] = np.zeros(self.index.doc_count, dtype=np.float64)
            found[rows] = values
        return found


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
    return TokenColumn(
        np.fromiter((r.id for r in records), np.int64, len(records)),
        offsets_from_sizes(list(map(len, token_lists))),
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
    bounds = token_of.searchsorted(np.arange(len(column.names) + 1))
    # int32 halves the tfs, and the scores cast them to float64 exactly.
    return InvertedIndex(column.record_ids, lengths, column.names, bounds, rows,
                         tfs.astype(np.int32))


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
    n = index.doc_count
    scores = np.zeros(n, dtype=np.float64)
    scorer = index.scorer(params)
    # Tokens are added in query order.  A dense contribution is zero outside
    # its posting, and x + 0.0 == x, so every score keeps the bits of the
    # scatter-add over postings alone.
    for token, qtf in query.counts.items():
        t = index.name_ids.get(token)
        if t is None:
            continue
        if t in index.dense_tokens:
            scores += scorer.dense_contribution(t, qtf)
        else:
            rows, values = scorer.contribution(t, qtf)
            scores[rows] += values
    # Scores are >= 0 for k1 >= 0 and b in [0, 1].  Only hits scoring at least
    # the k-th best can reach the top k; ties at that score stay in, so the id
    # tie-break sees all of them.  A k-th best of 0.0 means fewer than k hits.
    kth = np.partition(scores, n - k)[n - k] if n > k else 0.0
    hit_rows = np.flatnonzero(scores >= kth if kth > 0.0 else scores > 0.0)
    hit_scores = scores[hit_rows]
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
# A ``columns.write_cache`` file whose header holds the token list in postings
# order, with five segments: ids, lengths, posting offsets, concatenated
# posting rows, concatenated posting tfs.  An index always saves to one digest.

_INDEX_FORMAT = "scoi-bm25"
_INDEX_VERSION = 1


def save_index(path, index: InvertedIndex) -> None:
    header = {"format": _INDEX_FORMAT, "version": _INDEX_VERSION, "tokens": index.names}
    write_cache(path, header, (index.ids, index.lengths, index.bounds, index.doc_rows,
                               index.tfs.astype(np.float64, copy=False)))


def load_index(path) -> InvertedIndex:
    header, segments = read_cache(path, _INDEX_FORMAT, _INDEX_VERSION, "BM25 index file",
                                  ("tokens",), ("ids", "lengths", "offsets", "rows", "tfs"))
    ids, lengths, offsets, rows, tfs = segments.values()
    tokens = header["tokens"]
    if not offsets_fit(offsets, len(tokens), len(rows)):
        raise DataError(f"{path}: posting offsets do not match the {len(tokens)} tokens")
    return InvertedIndex(ids, lengths, tokens, offsets, rows, tfs)
