"""Example-selection strategies over a BM25-shortlisted candidate pool.

The flagship strategy, ``scoi``, alternates between maximizing set-level
syntactic coverage and set-level lexical coverage of the test input, in a
greedy loop that keeps already-chosen examples but restarts its live cover
whenever no remaining candidate improves the current mode's score.  Single
mode variants, distance-based top-k, a DPP combining syntactic relevance
with lexical diversity, plain BM25 rank passthrough, and a seeded random
baseline round out the strategy set.

Every strategy is a pure, deterministic function of its inputs (``random``
included, through its per-test seed derivation): byte-identical outputs
across runs.  Ties in every argmax break by ascending example id.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .columns import take_offsets
from .config import Bm25Params, SelectionPlan
# Declared with the other config values; also importable from here.
from .config import ORDERS, RELEVANCE_NORMS, STRATEGIES  # noqa: F401
from .coverage import occurrence_sum, similarity_matrix
from .retrieval import (
    InvertedIndex,
    TokenColumn,
    intern_tokens,
    token_table,
    word_matrix,
)
from .treepoly import PolyColumns, cityblock

# The per-candidate forms of PoolScores' tables.  Selection does not call
# them; they stay importable here because the traced benchmark run wraps
# them under these names.
from .coverage import max_similarities  # noqa: F401
from .treepoly import polynomial_distance  # noqa: F401

if TYPE_CHECKING:
    from .corpus import ExampleRecord

# Stands in for -inf as the "no live cover" score: strictly below any
# attainable coverage (coverages are >= 0) and JSON-serializable.
SENTINEL_LOW = -1.0


class Candidates(NamedTuple):
    """Candidate records as the columns ``PoolScores`` reads: row i of ``terms``
    and of ``tokens`` is record ``terms.ids[i]``, ``name_ids`` is
    ``tokens.name_ids()``, or the equal map of an index over ``tokens``, and
    ``sums`` holds each ``terms.table`` row's exponent sum."""

    terms: PolyColumns
    tokens: TokenColumn
    name_ids: dict[str, int]
    sums: np.ndarray

    @classmethod
    def from_columns(cls, terms: PolyColumns, tokens: TokenColumn,
                     name_ids: dict[str, int] | None = None) -> "Candidates":
        # In the narrowest type that holds the row width times the row type's maximum.
        bound = terms.table.shape[1] * int(np.iinfo(terms.table.dtype).max)
        sums = terms.table.sum(axis=1, dtype=np.min_scalar_type(bound))
        return cls(terms, tokens, tokens.name_ids() if name_ids is None else name_ids, sums)

    @classmethod
    def from_records(cls, records: Sequence["ExampleRecord"]) -> "Candidates":
        """The records, in their order, packed into columns."""
        for record in records:
            if record.poly is None:
                raise ValueError(f"pool record {record.id} has no polynomial")
        tokens = intern_tokens(records)
        terms = PolyColumns.from_polynomials(tokens.record_ids, [r.poly for r in records])
        return cls.from_columns(terms, tokens)


class PoolScores:
    """Per-candidate scores of one test input against one pool, each computed once.

    The pool is ``rows`` of ``candidates``; ``ranked`` holds their ids in
    that order (``select`` passes them in BM25 rank order), and ``ids`` in
    ascending order, which every table's rows follow.  A table is built on
    first use, so strategies that share a (test, pool) pair share its cost
    and a strategy pays only for the tables it reads.  The similarity and
    distance tables reduce one matrix of L1 distances from the test's terms
    to the pool's gathered terms; candidate i owns its columns from
    ``starts[i]``.
    """

    def __init__(self, test: "ExampleRecord", candidates: Candidates, rows: np.ndarray,
                 measure: str):
        if test.poly is None:
            raise ValueError("test record needs a polynomial")
        rows = np.asarray(rows, dtype=np.int64)
        ids = candidates.terms.ids
        self.ranked: list[int] = ids[rows].tolist()
        self.rows = np.sort(rows)
        self.ids: list[int] = ids[self.rows].tolist()
        self.test = test
        self.measure = measure
        self._candidates = candidates

    @classmethod
    def from_records(
        cls, test: "ExampleRecord", pool: Sequence["ExampleRecord"], measure: str
    ) -> "PoolScores":
        """Scores against a pool of records, packed into candidate columns."""
        # Stable, so records sharing an id keep their pool order.
        order = sorted(range(len(pool)), key=lambda i: pool[i].id)
        rows = np.empty(len(pool), dtype=np.int64)
        rows[order] = np.arange(len(pool))
        return cls(test, Candidates.from_records([pool[i] for i in order]), rows, measure)

    @cached_property
    def _pool_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The pool's term rows, their exponent sums, ``starts``, and the rows'
        entries in the columns' ``terms`` and ``counts``."""
        if not self.test.poly.n_distinct:
            raise ValueError("test polynomial is empty")
        terms = self._candidates.terms
        entries, offsets = take_offsets(terms.offsets, self.rows)
        starts = offsets[:-1]
        if (offsets[1:] == starts).any():
            # reduceat would hand an empty member its neighbour's first column.
            raise ValueError("cannot score against an empty term pool")
        table_rows = terms.terms[entries]
        # take() gathers whole rows faster than fancy indexing.
        rows = terms.table.take(table_rows, axis=0)
        return rows, self._candidates.sums.take(table_rows), starts, entries

    @cached_property
    def _distances(self) -> np.ndarray:
        """(distinct test terms, pool terms): every L1 distance, one kernel call."""
        rows, sums, _, _ = self._pool_terms
        return cityblock(self.test.poly.rows()[0], rows, sums)

    def _per_candidate(self, ufunc: np.ufunc, table: np.ndarray) -> np.ndarray:
        """(candidates, distinct test terms): ``ufunc`` over each candidate's columns."""
        return np.ascontiguousarray(ufunc.reduceat(table, self._pool_terms[2], axis=1).T)

    @cached_property
    def _row_mins(self) -> np.ndarray:
        """(candidates, distinct test terms): each candidate's nearest L1 distance."""
        return self._per_candidate(np.minimum, self._distances)

    @cached_property
    def similarities(self) -> np.ndarray:
        """(candidates, distinct test terms): best similarity to each test term."""
        if self.measure == "normalized-manhattan":
            # fl(1 / fl(1 + d)) never rises as d grows, so the best 1 / (1 + d)
            # over a candidate's columns is 1 / (1 + its nearest d), bit for bit.
            return 1.0 / (1.0 + self._row_mins)
        table = similarity_matrix(self.test.poly.rows()[0], self._pool_terms[0], self.measure)
        return self._per_candidate(np.maximum, table)

    @cached_property
    def distances(self) -> np.ndarray:
        """Polynomial distance of each candidate to the test input."""
        _, _, starts, entries = self._pool_terms
        counts = self._candidates.terms.counts[entries]
        n_terms = np.add.reduceat(counts, starts, dtype=np.int64)
        x_counts = self.test.poly.rows()[1].astype(np.float64)
        n_x = self.test.poly.n_terms
        col_mins = self._distances.min(axis=0)
        # Every term is an integer-valued float and every partial sum an
        # integer below 2**53, so the sums are exact in any order and equal
        # polynomial_distance's bit for bit.
        totals = self._row_mins @ x_counts + np.add.reduceat(counts * col_mins, starts)
        return totals / (n_x + n_terms)

    @cached_property
    def token_counts(self) -> np.ndarray:
        """int64 (candidates, distinct test tokens): each candidate's count of each token."""
        candidates = self._candidates
        return token_table(
            candidates.tokens, candidates.name_ids, self.rows, tuple(self.test.tokens.counts)
        )

    def coverage(self) -> tuple[float, float]:
        """The syntactic and lexical set coverage of the test input by the
        whole pool: ``syn_set_cov`` and ``word_set_cov`` against the union of
        its members, bit for bit."""
        poly, tokens = self.test.poly, self.test.tokens
        syn = occurrence_sum(self.similarities.max(axis=0), poly.dense()[1]) / poly.n_terms
        if tokens.total == 0:
            raise ValueError("test token bag is empty")
        want = np.fromiter(tokens.counts.values(), np.int64, len(tokens.counts))
        covered = np.minimum(want, self.token_counts.sum(axis=0)).sum()
        return syn, int(covered) / tokens.total


def _pool_scores(test, pool, plan: SelectionPlan, scores: PoolScores | None) -> PoolScores:
    """The shared table when one is given, else a fresh one for this call."""
    if scores is None:
        return PoolScores.from_records(test, pool, plan.measure)
    if scores.measure != plan.measure:
        raise ValueError(f"scores use measure {scores.measure!r}, the plan {plan.measure!r}")
    return scores


class SelectionResult(NamedTuple):
    """Ordered selection plus per-step diagnostics for one test input."""

    test_id: int
    strategy: str
    selected: list[int]
    steps: list[dict]
    flags: dict

    def to_record(self) -> dict:
        return {**self._asdict(), "selected": list(self.selected)}


def _mode_for_position(strategy: str, order: str, position: int) -> str:
    if strategy == "syntax-only":
        return "syntax"
    if strategy == "word-only":
        return "word"
    first, second = ("syntax", "word") if order == "syntax-first" else ("word", "syntax")
    return first if position % 2 == 0 else second


def _greedy_coverage(
    test: "ExampleRecord",
    pool: Sequence["ExampleRecord"],
    plan: SelectionPlan,
    strategy: str,
    scores: PoolScores | None = None,
) -> SelectionResult:
    scores = _pool_scores(test, pool, plan, scores)
    ids = scores.ids
    _, x_counts = test.poly.dense()
    n_x = test.poly.n_terms
    want = np.fromiter(test.tokens.counts.values(), np.int64, len(test.tokens.counts))
    x_total = test.tokens.total

    # Each step scores every remaining candidate at once.  The live cover is
    # the rows committed since the last restart; its best similarity per test
    # term is the elementwise max of theirs (exact in any order), its token
    # counts their sum.  np.argmax takes the first maximum, and rows are in
    # ascending-id order, so ties go to the smallest id.
    taken = np.zeros(len(ids), dtype=bool)
    live: list[int] = []
    curr = {"syntax": SENTINEL_LOW, "word": SENTINEL_LOW}
    selected: list[int] = []
    steps: list[dict] = []
    flags: dict = {}
    event = 0

    while len(selected) < plan.k:
        rows = np.flatnonzero(~taken)
        if rows.size == 0:
            flags["pool_exhausted"] = True
            break
        mode = _mode_for_position(strategy, plan.order, len(selected))
        if mode == "syntax":
            sims = scores.similarities
            cover = sims[live].max(axis=0, initial=0.0)
            covs = occurrence_sum(np.maximum(cover, sims[rows]), x_counts) / n_x
        else:
            if x_total == 0:
                # 0 / 0 coverage is nan, which never beats the live score.
                raise ValueError("test token bag is empty")
            counts = scores.token_counts
            cover = counts[live].sum(axis=0)
            covs = np.minimum(want, cover + counts[rows]).sum(axis=1) / x_total
        pick = int(np.argmax(covs))
        best_cov = float(covs[pick])

        if best_cov > curr[mode]:
            row = int(rows[pick])
            best_id = ids[row]
            selected.append(best_id)
            taken[row] = True
            # A committed example joins the live cover for BOTH modes.
            live.append(row)
            curr[mode] = best_cov
            steps.append(
                {
                    "step": event,
                    "position": len(selected) - 1,
                    "mode": mode,
                    "action": "commit",
                    "chosen": best_id,
                    "coverage": best_cov,
                }
            )
        else:
            # Keep the committed examples but drop the live cover.  Both
            # scores reset; when the other mode's score was live this is
            # stricter than a literal one-score reset, so it gets flagged.
            other = "word" if mode == "syntax" else "syntax"
            other_live = curr[other] != SENTINEL_LOW
            live = []
            curr = {"syntax": SENTINEL_LOW, "word": SENTINEL_LOW}
            steps.append(
                {
                    "step": event,
                    "position": len(selected),
                    "mode": mode,
                    "action": "restart",
                    "best_rejected": best_cov,
                    "resets_other_score": other_live,
                }
            )
        event += 1

    if len(selected) < plan.k:
        # Pool exhausted: pad from the BM25 rank order and flag the result.
        for rid in scores.ranked:
            if len(selected) >= plan.k:
                break
            if rid not in selected:
                selected.append(rid)
                steps.append({"step": event, "action": "bm25_fill", "chosen": rid})
                event += 1
        flags["pool_exhausted"] = True

    return SelectionResult(test.id, strategy, selected, steps, flags)


def select_scoi(
    test: "ExampleRecord",
    pool: Sequence["ExampleRecord"],
    plan: SelectionPlan,
    scores: PoolScores | None = None,
) -> SelectionResult:
    """Alternating syntactic/lexical greedy coverage selection."""
    return _greedy_coverage(test, pool, plan, "scoi", scores)


def select_single_coverage(
    test: "ExampleRecord",
    pool: Sequence["ExampleRecord"],
    plan: SelectionPlan,
    scores: PoolScores | None = None,
) -> SelectionResult:
    """Single-mode ablations: the same greedy loop, one coverage throughout."""
    if plan.strategy not in ("syntax-only", "word-only"):
        raise ValueError("select_single_coverage expects a syntax-only or word-only plan")
    return _greedy_coverage(test, pool, plan, plan.strategy, scores)


def select_topk_poly(
    test: "ExampleRecord",
    pool: Sequence["ExampleRecord"],
    plan: SelectionPlan,
    scores: PoolScores | None = None,
) -> SelectionResult:
    """k pool members closest to the test input in polynomial distance."""
    scores = _pool_scores(test, pool, plan, scores)
    ranked = sorted(zip(scores.distances.tolist(), scores.ids))
    chosen = ranked[: plan.k]
    steps = [
        {"rank": i, "chosen": rid, "distance": dist} for i, (dist, rid) in enumerate(chosen)
    ]
    flags = {} if len(chosen) == plan.k else {"pool_exhausted": True}
    return SelectionResult(test.id, "topk-poly", [rid for _, rid in chosen], steps, flags)


def select_bm25(
    test: "ExampleRecord",
    pool: Sequence["ExampleRecord"],
    plan: SelectionPlan,
    scores: PoolScores | None = None,
) -> SelectionResult:
    """First k candidates in BM25 rank order (the retrieval baseline)."""
    ranked = [r.id for r in pool] if scores is None else scores.ranked
    chosen = ranked[: plan.k]
    steps = [{"rank": i, "chosen": rid} for i, rid in enumerate(chosen)]
    flags = {} if len(chosen) == plan.k else {"pool_exhausted": True}
    return SelectionResult(test.id, "bm25-passthrough", chosen, steps, flags)


def _greedy_map(kernel: np.ndarray, k: int, eps: float = 1e-12) -> list[int]:
    """Fast greedy MAP for a DPP kernel via incremental Cholesky updates.

    Each step adds the item with the largest residual squared volume
    (the marginal determinant gain).  Stops early when no residual stays
    numerically positive.  Equal residuals resolve to the lowest row index,
    so rows must already be in ascending-id order.
    """
    n = kernel.shape[0]
    cis = np.zeros((max(k - 1, 0), n), dtype=np.float64)
    di2s = np.array(np.diagonal(kernel), dtype=np.float64, copy=True)
    selected: list[int] = []
    while len(selected) < k:
        j = int(np.argmax(di2s))
        if not di2s[j] > eps:
            break
        selected.append(j)
        if len(selected) == k:
            break
        depth = len(selected) - 1
        ci_opt = cis[:depth, j]
        di_opt = math.sqrt(di2s[j])
        eis = (kernel[j, :] - ci_opt @ cis[:depth, :]) / di_opt
        cis[depth, :] = eis
        di2s -= eis * eis
        di2s[j] = -np.inf
    return selected


def dpp_kernel(
    matrix: np.ndarray, relevance: np.ndarray, dpp_lambda: float
) -> np.ndarray:
    """Relevance-scaled diversity kernel.

    L is the Gram matrix of unit-normalized word vectors (zero rows keep a
    bare 1 on the diagonal); scaling row and column i by exp(r_i / (2λ))
    makes log det on a subset equal (1/λ) Σ r_i + log det of the plain
    diversity kernel.
    """
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = matrix / safe
    kernel = unit @ unit.T
    np.fill_diagonal(kernel, 1.0)
    scale = np.exp(relevance / (2.0 * dpp_lambda))
    return kernel * scale[:, None] * scale[None, :]


def select_dpp(
    test: "ExampleRecord",
    pool: Sequence["ExampleRecord"],
    plan: SelectionPlan,
    index: InvertedIndex,
    params: Bm25Params = Bm25Params(),
    scores: PoolScores | None = None,
) -> SelectionResult:
    """DPP MAP selection: syntactic relevance on the diagonal, lexical
    diversity from BM25-weighted word vectors off it."""
    scores = _pool_scores(test, pool, plan, scores)
    index_rows = index.rows(scores.ids)
    wm = word_matrix(index_rows, scores.token_counts, test.tokens, index, params)
    distances = scores.distances
    if plan.relevance_norm == "reciprocal":
        relevance = 1.0 / (1.0 + distances)
    else:
        span = distances.max() - distances.min()
        if span > 0.0:
            relevance = (distances.max() - distances) / span
        else:
            relevance = np.ones_like(distances)
    kernel = dpp_kernel(wm, relevance, plan.dpp_lambda)

    flags: dict = {}
    rows = _greedy_map(kernel, plan.k)
    if len(rows) < min(plan.k, len(scores.ids)):
        # Numerically singular kernel: jitter the diagonal and rerun.
        kernel = kernel + 1e-8 * np.eye(kernel.shape[0])
        rows = _greedy_map(kernel, plan.k)
        flags["jitter"] = True
    if len(rows) < plan.k:
        flags["pool_exhausted"] = True

    selected = [scores.ids[r] for r in rows]
    steps = [
        {"rank": i, "chosen": rid, "relevance": float(relevance[r])}
        for i, (r, rid) in enumerate(zip(rows, selected))
    ]
    return SelectionResult(test.id, "dpp", selected, steps, flags)


def select_random(
    test: "ExampleRecord", corpus_ids: Sequence[int], plan: SelectionPlan
) -> SelectionResult:
    """k ids drawn uniformly without replacement from the full corpus.

    Seeded per test input by mixing the plan seed with the test id through
    the string-seeding path of the stdlib generator, which is stable across
    platforms and interpreter versions.
    """
    if len(corpus_ids) < plan.k:
        raise ValueError(f"corpus of {len(corpus_ids)} records cannot supply k={plan.k}")
    derived = f"{plan.rng_seed}:{test.id}"
    rng = random.Random(derived)
    chosen = rng.sample(sorted(corpus_ids), plan.k)
    steps = [{"rank": i, "chosen": rid} for i, rid in enumerate(chosen)]
    return SelectionResult(test.id, "random", chosen, steps, {"derived_seed": derived})


def run_strategy(
    test: "ExampleRecord",
    pool: Sequence["ExampleRecord"],
    plan: SelectionPlan,
    *,
    index: InvertedIndex | None = None,
    corpus_ids: Sequence[int] | None = None,
    params: Bm25Params = Bm25Params(),
    scores: PoolScores | None = None,
) -> SelectionResult:
    """Dispatch one test input to the plan's strategy.

    ``scores`` is a ``PoolScores`` of this test and pool that callers
    running several strategies share; without it each strategy builds its own.
    The strategies read the pool from ``scores`` when it is given, so ``pool``
    may then be its ids, ``scores.ranked``.
    """
    plan.validate()
    strategy = plan.strategy
    if strategy == "scoi":
        return select_scoi(test, pool, plan, scores)
    if strategy in ("syntax-only", "word-only"):
        return select_single_coverage(test, pool, plan, scores)
    if strategy == "topk-poly":
        return select_topk_poly(test, pool, plan, scores)
    if strategy == "bm25-passthrough":
        return select_bm25(test, pool, plan, scores)
    if strategy == "dpp":
        if index is None:
            raise ValueError("dpp strategy needs the BM25 index")
        return select_dpp(test, pool, plan, index, params, scores)
    if strategy == "random":
        if corpus_ids is None:
            raise ValueError("random strategy needs the full corpus id list")
        return select_random(test, corpus_ids, plan)
    raise ValueError(f"unknown strategy {strategy!r}")
