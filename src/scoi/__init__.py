"""scoi: coverage-based in-context example selection for machine translation.

Converts dependency trees to polynomial fingerprints, measures set-level
syntactic and lexical coverage, and selects demonstration sets with an
alternating greedy strategy (plus top-k, DPP, BM25 and random baselines)
over BM25-shortlisted candidate pools.

The names below load their module on first access, so ``import scoi`` and
the CLI's runs that start no stage import no numpy.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOMES = {
    "Bm25Params": "config",
    "SelectionPlan": "config",
    "TokenBag": "coverage",
    "syn_set_cov": "coverage",
    "term_similarity": "coverage",
    "word_set_cov": "coverage",
    "InvertedIndex": "retrieval",
    "bm25_topk": "retrieval",
    "build_index": "retrieval",
    "word_matrix": "retrieval",
    "SelectionResult": "selection",
    "select_dpp": "selection",
    "select_random": "selection",
    "select_scoi": "selection",
    "select_single_coverage": "selection",
    "select_topk_poly": "selection",
    "DependencyTree": "treepoly",
    "LabelVocabulary": "treepoly",
    "OriginalPolynomial": "treepoly",
    "Polynomial": "treepoly",
    "original_polynomial": "treepoly",
    "polynomial_distance": "treepoly",
    "simplified_polynomial": "treepoly",
}

__all__ = ["__version__", *sorted(_HOMES)]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
