"""Run configuration: a key=value file plus command-line overrides.

This module is the one declaration of the allowed config values: the
strategies, loop orders, coverage measures and DPP relevance norms, the
BM25 parameters and the selection plan.  It imports no numpy, so parsing
and checking a config loads none of the numeric modules.

The file format is one ``key = value`` pair per line; ``#`` starts a
comment; blank lines are skipped.  Relative paths are resolved against the
config file's directory, so a config can travel with its data.  Flags win
over file values, which keeps run manifests meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import ConfigError
from .prompts import PROMPT_STYLES, PromptTemplate

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
# Per-term similarity measures.  normalized-manhattan is the default;
# cosine is only reachable through explicit configuration.
MEASURES = ("normalized-manhattan", "cosine")


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.5
    b: float = 0.75


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
class RunConfig:
    corpus_source: Path | None = None
    corpus_target: Path | None = None
    corpus_conllu: Path | None = None
    test_source: Path | None = None
    test_conllu: Path | None = None
    out_dir: Path = Path("out")
    strategy: str = "scoi"
    k: int = 4
    order: str = "syntax-first"
    measure: str = "normalized-manhattan"
    pool_size: int = 100
    dpp_lambda: float = 0.5
    relevance_norm: str = "reciprocal"
    seed: int = 0
    max_tokens: int = 120
    filter_target: bool = False
    fold_case: bool = False
    strip_punctuation: bool = False
    workers: int = 1  # accepted and unused: build and select run in one process
    prompt_style: str = "delimiter"
    source_language: str = "source"
    target_language: str = "target"
    bm25_k1: float = 1.5
    bm25_b: float = 0.75

    def validate(self) -> None:
        """Check every key; the selection parameters via ``SelectionPlan``."""
        if self.strategy not in STRATEGIES + ("all",):
            raise ConfigError(f"strategy must be one of {STRATEGIES + ('all',)}, got {self.strategy!r}")
        try:
            self.plan().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.prompt_style not in PROMPT_STYLES:
            raise ConfigError(f"prompt_style must be one of {PROMPT_STYLES}")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0.0 <= self.bm25_b <= 1.0:
            raise ConfigError("bm25_b must lie in [0, 1]")
        if self.bm25_k1 <= 0:
            raise ConfigError("bm25_k1 must be positive")

    def plan(self, strategy: str | None = None) -> SelectionPlan:
        return SelectionPlan(
            strategy=strategy or self.strategy,
            k=self.k,
            order=self.order,
            measure=self.measure,
            pool_size=self.pool_size,
            dpp_lambda=self.dpp_lambda,
            relevance_norm=self.relevance_norm,
            rng_seed=self.seed,
        )

    def bm25_params(self) -> Bm25Params:
        return Bm25Params(k1=self.bm25_k1, b=self.bm25_b)

    def template(self) -> PromptTemplate:
        return PromptTemplate(
            style=self.prompt_style,
            source_language=self.source_language,
            target_language=self.target_language,
        )

    def snapshot(self) -> dict:
        """JSON-ready view for manifests; paths rendered as strings."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = str(value) if isinstance(value, Path) else value
        return out


def _key_type(hint) -> type:
    """``Path | None`` -> ``Path``; a plain type is its own key type."""
    return next((arg for arg in get_args(hint) if arg is not type(None)), hint)


_HINTS = get_type_hints(RunConfig)
# Each config key and the type its values parse to, in declaration order.
KEY_TYPES: dict[str, type] = {f.name: _key_type(_HINTS[f.name]) for f in fields(RunConfig)}
# The input files ``build`` reads: path keys with no default.
INPUT_KEYS = tuple(
    f.name for f in fields(RunConfig) if KEY_TYPES[f.name] is Path and f.default is None
)


def coerce(name: str, kind: type, raw: str):
    """Parse one raw value of key ``name``, as a config file or a flag gives it."""
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected {kind.__name__}, got {raw!r}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite float, got {raw!r}")
    return value


def parse_config_text(text: str, base_dir: Path) -> dict:
    """Parse key=value lines into typed values, resolving relative paths."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        kind = KEY_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        values[key] = coerce(key, kind, value)
        if kind is Path and not values[key].is_absolute():
            values[key] = base_dir / values[key]
    return values


def load_config(path: Path | str | None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional file and typed overrides (None = unset)."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_config_text(path.read_text(encoding="utf-8"), path.parent.resolve()))
    values.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    config = RunConfig(**values)
    config.validate()
    return config
