"""Set-level syntactic and lexical coverage of a test input by an example set.

Syntactic coverage averages, over the test input's polynomial terms, the
best similarity to any term contributed by the example set.  Lexical
coverage is the proportion of the test input's word multiset covered by the
example set's words.  Both respect multiplicities on the test side; pools
are multiset unions of the members' terms or tokens.

All inputs are treated as immutable; scoring many candidates against one
test input concurrently is the expected usage.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

import numpy as np

from .treepoly import Polynomial, TermVector, cdist, manhattan, term_degree

# Per-term similarity measures.  normalized-manhattan is the default;
# cosine is only reachable through explicit configuration.
MEASURES = ("normalized-manhattan", "cosine")


class TokenBag:
    """Multiset of token strings with a cached total count."""

    __slots__ = ("counts", "total")

    def __init__(self, counts: Counter[str]):
        self.counts = counts
        self.total = sum(counts.values())

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "TokenBag":
        return cls(Counter(tokens))

    @classmethod
    def union(cls, bags: Iterable["TokenBag"]) -> "TokenBag":
        merged: Counter[str] = Counter()
        for bag in bags:
            merged.update(bag.counts)
        return cls(merged)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TokenBag) and self.counts == other.counts

    def __repr__(self) -> str:
        return f"TokenBag({self.total} tokens, {len(self.counts)} distinct)"


def _check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise ValueError(f"unknown coverage measure {measure!r}; expected one of {MEASURES}")


def term_similarity(s: TermVector, t: TermVector, measure: str = "normalized-manhattan") -> float:
    """Similarity of two term vectors.

    normalized-manhattan: 1 / (1 + L1(s, t)), in (0, 1], equal to 1 iff the
    vectors are identical.  cosine: in [0, 1] for nonnegative exponents,
    equal to 1 iff the vectors are parallel.
    """
    _check_measure(measure)
    if term_degree(s) == 0 or term_degree(t) == 0:
        raise ValueError("term vectors must be non-empty")
    if measure == "normalized-manhattan":
        return 1.0 / (1.0 + manhattan(s, t))
    dot = 0
    i = j = 0
    while i < len(s) and j < len(t):
        ls, es = s[i]
        lt, et = t[j]
        if ls == lt:
            dot += es * et
            i += 1
            j += 1
        elif ls < lt:
            i += 1
        else:
            j += 1
    sq_s = sum(e * e for _, e in s)
    sq_t = sum(e * e for _, e in t)
    # Exponents are integers, so parallelism is decidable exactly.
    if dot * dot == sq_s * sq_t:
        return 1.0
    return dot / (sq_s * sq_t) ** 0.5


def _pad_to(mat: np.ndarray, width: int) -> np.ndarray:
    if mat.shape[1] == width:
        return mat
    return np.pad(mat, ((0, 0), (0, width - mat.shape[1])))


def similarity_matrix(x_mat: np.ndarray, pool_mat: np.ndarray, measure: str) -> np.ndarray:
    """Pairwise term similarities between two dense term matrices."""
    _check_measure(measure)
    width = max(x_mat.shape[1], pool_mat.shape[1])
    x_mat = _pad_to(x_mat, width)
    pool_mat = _pad_to(pool_mat, width)
    if measure == "normalized-manhattan":
        return 1.0 / (1.0 + cdist(x_mat, pool_mat, "cityblock"))
    # cdist computes every entry from just its two rows, so a pair's
    # similarity cannot drift with the pool's shape (a BLAS matrix product
    # rounds gemv and gemm paths differently, which breaks exact
    # monotonicity under pool growth).  Clip rounding overshoot to [0, 1].
    return np.clip(1.0 - cdist(x_mat, pool_mat, "cosine"), 0.0, 1.0)


def max_similarities(
    x: Polynomial, other: Polynomial, measure: str = "normalized-manhattan"
) -> np.ndarray:
    """For each distinct term of x, its best similarity to any term of other.

    Rows align with ``x.term_vectors()``.  Used incrementally by selection:
    the best match against a pool (``Polynomial.union`` of its members) is
    the elementwise max of the per-member results.
    """
    if not x.n_distinct:
        raise ValueError("test polynomial is empty")
    x_mat, _ = x.dense()
    other_mat, _ = other.dense()
    if other_mat.shape[0] == 0:
        raise ValueError("cannot score against an empty term pool")
    return similarity_matrix(x_mat, other_mat, measure).max(axis=1)


def occurrence_sum(values: np.ndarray, counts: np.ndarray) -> float | np.ndarray:
    """Sum ``values`` weighted by integer ``counts``, one addition per occurrence.

    Coverage sums are pinned to sequential per-occurrence addition over the
    canonical term order.  Blocked summations (BLAS dot products) round
    differently depending on vector composition, which lets two candidates
    with mathematically equal coverage compare unequal; argmax ties must
    instead fall through to the ascending-id rule.  A 2-D ``values`` is
    summed row by row, one column added per occurrence, giving each row the
    same float its 1-D sum would; a 1-D ``values`` gives a ``float``.
    """
    total = np.zeros(values.shape[:-1])
    for column, count in zip(values.T, counts.tolist()):
        for _ in range(int(count)):
            total += column
    return float(total) if values.ndim == 1 else total


def syn_set_cov(x: Polynomial, pool: Polynomial, measure: str = "normalized-manhattan") -> float:
    """Mean over x's terms (with multiplicity) of the best pool-term similarity.

    The pool must be non-empty; when scoring a candidate against an empty
    selection, callers pass the candidate's own terms as the pool.
    """
    best = max_similarities(x, pool, measure)
    _, counts = x.dense()
    return occurrence_sum(best, counts) / x.n_terms


def word_set_cov(x_tokens: TokenBag, pool_tokens: TokenBag) -> float:
    """Multiset word overlap: |W_x intersect W_pool| / |W_x|."""
    if x_tokens.total == 0:
        raise ValueError("test token bag is empty")
    pool = pool_tokens.counts
    covered = 0
    for token, count in x_tokens.counts.items():
        have = pool.get(token, 0)
        covered += count if have >= count else have
    return covered / x_tokens.total
