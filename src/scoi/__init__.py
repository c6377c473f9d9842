"""scoi: coverage-based in-context example selection for machine translation.

Converts dependency trees to polynomial fingerprints, measures set-level
syntactic and lexical coverage, and selects demonstration sets with an
alternating greedy strategy (plus top-k, DPP, BM25 and random baselines)
over BM25-shortlisted candidate pools.
"""

__version__ = "0.1.0"

from .coverage import TokenBag, syn_set_cov, term_similarity, word_set_cov
from .retrieval import Bm25Params, InvertedIndex, bm25_topk, build_index, word_matrix
from .selection import (
    SelectionPlan,
    SelectionResult,
    select_dpp,
    select_random,
    select_scoi,
    select_single_coverage,
    select_topk_poly,
)
from .treepoly import (
    DependencyTree,
    LabelVocabulary,
    OriginalPolynomial,
    Polynomial,
    original_polynomial,
    polynomial_distance,
    simplified_polynomial,
)

__all__ = [
    "__version__",
    "Bm25Params",
    "DependencyTree",
    "InvertedIndex",
    "LabelVocabulary",
    "OriginalPolynomial",
    "Polynomial",
    "SelectionPlan",
    "SelectionResult",
    "TokenBag",
    "bm25_topk",
    "build_index",
    "original_polynomial",
    "polynomial_distance",
    "select_dpp",
    "select_random",
    "select_scoi",
    "select_single_coverage",
    "select_topk_poly",
    "simplified_polynomial",
    "syn_set_cov",
    "term_similarity",
    "word_matrix",
    "word_set_cov",
]
