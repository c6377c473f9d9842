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
across runs and worker counts.  Ties in every argmax break by ascending
example id.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .coverage import MEASURES, TermPool, TokenBag, max_similarities, occurrence_sum
from .retrieval import Bm25Params, InvertedIndex, word_matrix
from .treepoly import polynomial_distance

if TYPE_CHECKING:
    from .corpus import ExampleRecord

STRATEGIES = (
    "scoi",
    "syntax-only",
    "word-only",
    "topk-poly",
    "dpp",
    "bm25-passthrough",
    "random",
)
ORDERS = ("syntax-first", "word-first")
RELEVANCE_NORMS = ("reciprocal", "minmax")

# Stands in for -inf as the "no live cover" score: strictly below any
# attainable coverage (coverages are >= 0) and JSON-serializable.
SENTINEL_LOW = -1.0


@dataclass
class SelectionPlan:
    """Strategy choice and parameters governing one selection run."""

    strategy: str = "scoi"
    k: int = 4
    order: str = "syntax-first"
    measure: str = "normalized-manhattan"
    pool_size: int = 100
    dpp_lambda: float = 0.5
    relevance_norm: str = "reciprocal"
    rng_seed: int = 0

    def validate(self) -> None:
        """Check the parameters; ``run_strategy`` rejects an unknown strategy."""
        if self.order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}, got {self.order!r}")
        if self.measure not in MEASURES:
            raise ValueError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        if self.relevance_norm not in RELEVANCE_NORMS:
            raise ValueError(
                f"relevance_norm must be one of {RELEVANCE_NORMS}, got {self.relevance_norm!r}"
            )
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.pool_size < self.k:
            raise ValueError("pool_size must be >= k")
        if self.dpp_lambda <= 0:
            raise ValueError("dpp_lambda must be positive")


@dataclass
class CoverageState:
    """Live state of the alternating greedy loop.

    ``selected`` is the committed example order; ``z_curr`` the ids feeding
    the live cover.  The pools equal the multiset unions over ``z_curr``
    exactly; after a restart they are empty and both scores sit at
    SENTINEL_LOW.
    """

    selected: list[int] = field(default_factory=list)
    z_curr: list[int] = field(default_factory=list)
    term_pool: Counter[int] = field(default_factory=Counter)
    token_pool: Counter[str] = field(default_factory=Counter)
    curr_syn_cov: float = SENTINEL_LOW
    curr_word_cov: float = SENTINEL_LOW

    def term_pool_view(self, dim: int) -> TermPool:
        return TermPool(Counter(self.term_pool), dim)

    def token_pool_view(self) -> TokenBag:
        return TokenBag(Counter(self.token_pool))


@dataclass
class SelectionResult:
    """Ordered selection plus per-step diagnostics for one test input."""

    test_id: int
    strategy: str
    selected: list[int]
    steps: list[dict]
    flags: dict

    def to_record(self) -> dict:
        return {
            "test_id": self.test_id,
            "strategy": self.strategy,
            "selected": list(self.selected),
            "steps": self.steps,
            "flags": self.flags,
        }


def _mode_for_position(strategy: str, order: str, position: int) -> str:
    if strategy == "syntax-only":
        return "syntax"
    if strategy == "word-only":
        return "word"
    first, second = ("syntax", "word") if order == "syntax-first" else ("word", "syntax")
    return first if position % 2 == 0 else second


def _greedy_coverage(
    test: "ExampleRecord", pool: Sequence["ExampleRecord"], plan: SelectionPlan, strategy: str
) -> SelectionResult:
    if test.poly is None or test.tokens is None:
        raise ValueError("test record needs a polynomial and a token bag")
    by_id = sorted(pool, key=lambda r: r.id)
    for record in by_id:
        if record.poly is None:
            raise ValueError(f"pool record {record.id} has no polynomial")

    x_mat, x_counts = test.poly.dense()
    n_x = test.poly.n_terms
    x_tokens = list(test.tokens.counts.items())
    x_total = test.tokens.total

    # Best similarity of each distinct test term against one candidate's
    # terms; the best against a pool union is the elementwise max of these.
    cand_sims = {r.id: max_similarities(test.poly, r.poly, plan.measure) for r in by_id}

    state = CoverageState()
    best_vs_cover = np.zeros(len(x_counts), dtype=np.float64)
    steps: list[dict] = []
    flags: dict = {}
    selected_set: set[int] = set()
    event = 0

    while len(state.selected) < plan.k:
        remaining = [r for r in by_id if r.id not in selected_set]
        if not remaining:
            flags["pool_exhausted"] = True
            break
        mode = _mode_for_position(strategy, plan.order, len(state.selected))
        best_id = -1
        best_cov = -math.inf
        best_vec: np.ndarray | None = None
        if mode == "syntax":
            for cand in remaining:
                vec = np.maximum(best_vs_cover, cand_sims[cand.id])
                cov = occurrence_sum(vec, x_counts) / n_x
                if cov > best_cov:
                    best_id, best_cov, best_vec = cand.id, cov, vec
            curr = state.curr_syn_cov
        else:
            pool_counts = state.token_pool
            for cand in remaining:
                cand_counts = cand.tokens.counts
                covered = 0
                for token, want in x_tokens:
                    have = pool_counts.get(token, 0) + cand_counts.get(token, 0)
                    covered += want if have >= want else have
                cov = covered / x_total
                if cov > best_cov:
                    best_id, best_cov = cand.id, cov
            curr = state.curr_word_cov

        if best_cov > curr:
            chosen = next(r for r in remaining if r.id == best_id)
            state.selected.append(best_id)
            state.z_curr.append(best_id)
            state.term_pool.update(chosen.poly.terms)
            state.token_pool.update(chosen.tokens.counts)
            selected_set.add(best_id)
            # A committed example joins the live cover for BOTH modes, so the
            # syntactic best-match vector advances on word commits too.
            if mode == "syntax":
                state.curr_syn_cov = best_cov
                best_vs_cover = best_vec
            else:
                state.curr_word_cov = best_cov
                best_vs_cover = np.maximum(best_vs_cover, cand_sims[best_id])
            steps.append(
                {
                    "step": event,
                    "position": len(state.selected) - 1,
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
            other_live = (
                state.curr_word_cov != SENTINEL_LOW
                if mode == "syntax"
                else state.curr_syn_cov != SENTINEL_LOW
            )
            state.z_curr = []
            state.term_pool = Counter()
            state.token_pool = Counter()
            state.curr_syn_cov = SENTINEL_LOW
            state.curr_word_cov = SENTINEL_LOW
            best_vs_cover = np.zeros(len(x_counts), dtype=np.float64)
            steps.append(
                {
                    "step": event,
                    "position": len(state.selected),
                    "mode": mode,
                    "action": "restart",
                    "best_rejected": best_cov,
                    "resets_other_score": bool(other_live),
                }
            )
        event += 1

    if len(state.selected) < plan.k:
        # Pool exhausted: pad from the BM25 rank order and flag the result.
        for record in pool:
            if len(state.selected) >= plan.k:
                break
            if record.id not in selected_set:
                state.selected.append(record.id)
                selected_set.add(record.id)
                steps.append({"step": event, "action": "bm25_fill", "chosen": record.id})
                event += 1
        flags["pool_exhausted"] = True

    return SelectionResult(test.id, strategy, state.selected, steps, flags)


def select_scoi(
    test: "ExampleRecord", pool: Sequence["ExampleRecord"], plan: SelectionPlan
) -> SelectionResult:
    """Alternating syntactic/lexical greedy coverage selection."""
    return _greedy_coverage(test, pool, plan, "scoi")


def select_single_coverage(
    test: "ExampleRecord", pool: Sequence["ExampleRecord"], plan: SelectionPlan
) -> SelectionResult:
    """Single-mode ablations: the same greedy loop, one coverage throughout."""
    if plan.strategy not in ("syntax-only", "word-only"):
        raise ValueError("select_single_coverage expects a syntax-only or word-only plan")
    return _greedy_coverage(test, pool, plan, plan.strategy)


def select_topk_poly(
    test: "ExampleRecord", pool: Sequence["ExampleRecord"], plan: SelectionPlan
) -> SelectionResult:
    """k pool members closest to the test input in polynomial distance."""
    if test.poly is None:
        raise ValueError("test record needs a polynomial")
    ranked = sorted((polynomial_distance(test.poly, r.poly), r.id) for r in pool)
    chosen = ranked[: plan.k]
    steps = [
        {"rank": i, "chosen": rid, "distance": dist} for i, (dist, rid) in enumerate(chosen)
    ]
    flags = {} if len(chosen) == plan.k else {"pool_exhausted": True}
    return SelectionResult(test.id, "topk-poly", [rid for _, rid in chosen], steps, flags)


def select_bm25(
    test: "ExampleRecord", pool: Sequence["ExampleRecord"], plan: SelectionPlan
) -> SelectionResult:
    """First k candidates in BM25 rank order (the retrieval baseline)."""
    chosen = [r.id for r in pool[: plan.k]]
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
) -> SelectionResult:
    """DPP MAP selection: syntactic relevance on the diagonal, lexical
    diversity from BM25-weighted word vectors off it."""
    if test.poly is None or test.tokens is None:
        raise ValueError("test record needs a polynomial and a token bag")
    by_id = sorted(pool, key=lambda r: r.id)
    wm = word_matrix(by_id, test.tokens, index, params)
    distances = np.array(
        [polynomial_distance(test.poly, r.poly) for r in by_id], dtype=np.float64
    )
    if plan.relevance_norm == "reciprocal":
        relevance = 1.0 / (1.0 + distances)
    else:
        span = distances.max() - distances.min()
        if span > 0.0:
            relevance = (distances.max() - distances) / span
        else:
            relevance = np.ones_like(distances)
    kernel = dpp_kernel(wm.matrix, relevance, plan.dpp_lambda)

    flags: dict = {}
    rows = _greedy_map(kernel, plan.k)
    if len(rows) < min(plan.k, len(by_id)):
        # Numerically singular kernel: jitter the diagonal and rerun.
        kernel = kernel + 1e-8 * np.eye(kernel.shape[0])
        rows = _greedy_map(kernel, plan.k)
        flags["jitter"] = True
    if len(rows) < plan.k:
        flags["pool_exhausted"] = True

    selected = [by_id[r].id for r in rows]
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
) -> SelectionResult:
    """Dispatch one test input to the plan's strategy."""
    plan.validate()
    strategy = plan.strategy
    if strategy == "scoi":
        return select_scoi(test, pool, plan)
    if strategy in ("syntax-only", "word-only"):
        return select_single_coverage(test, pool, plan)
    if strategy == "topk-poly":
        return select_topk_poly(test, pool, plan)
    if strategy == "bm25-passthrough":
        return select_bm25(test, pool, plan)
    if strategy == "dpp":
        if index is None:
            raise ValueError("dpp strategy needs the BM25 index")
        return select_dpp(test, pool, plan, index, params)
    if strategy == "random":
        if corpus_ids is None:
            raise ValueError("random strategy needs the full corpus id list")
        return select_random(test, corpus_ids, plan)
    raise ValueError(f"unknown strategy {strategy!r}")
