"""Scaling harness comparing the two tree-to-polynomial constructions.

The adversarial family is parameterized by (q, t): a complete binary crown
with q + 1 levels whose 2**q bottom nodes each head a chain of t nodes, so
the tree has t + q layers and p*t + p - 1 nodes with p = 2**q.  Every node
carries a distinct label, which blocks like-term merging and exposes the
exact expansion's worst case: on the q = 2 family its multiplication count
grows quartically in the tree size, and doubling q squares the degree
again, while the simplified construction stays at most quadratic.

Operation counts for the simplified construction follow its evaluation
cost model (per internal node: one addition per child-polynomial term to
form the sum, one multiplication per term of the result to apply the
node's variable); they are exact functions of the subtree sizes, not
wall-clock samples.
"""

from __future__ import annotations

import json
import random
import time
from typing import NamedTuple

import numpy as np

from .errors import TermExplosionError
from .treepoly import (
    DependencyTree,
    LabelVocabulary,
    original_polynomial,
    simplified_polynomial,
)


def family_tree(q: int, t: int) -> tuple[DependencyTree, LabelVocabulary]:
    """Adversarial tree with 2**q chains of length t under a binary crown."""
    if q < 1 or t < 1:
        raise ValueError("q and t must be >= 1")
    p = 1 << q
    crown = 2 * p - 1  # complete binary tree of q + 1 levels; leaves head chains
    parents = [-1] + [(i - 1) // 2 for i in range(1, crown)]
    for j in range(p):
        head = p - 1 + j
        prev = head
        for _ in range(t - 1):
            parents.append(prev)
            prev = len(parents) - 1
    n = len(parents)
    vocab = LabelVocabulary(f"n{i}" for i in range(n))
    labels = list(range(n))
    return DependencyTree(labels, parents), vocab


def random_tree(n: int, n_labels: int, rng: random.Random) -> DependencyTree:
    """Uniform random recursive tree: node i attaches under a random earlier node."""
    if n < 1:
        raise ValueError("n must be >= 1")
    parents = [-1] + [rng.randrange(i) for i in range(1, n)]
    labels = [rng.randrange(n_labels) for _ in range(n)]
    return DependencyTree(labels, parents)


def simplified_op_counts(tree: DependencyTree) -> tuple[int, int]:
    """(multiplications, additions) of evaluating the simplified recursion.

    Determined exactly by subtree sizes: an internal node with children of
    sizes s_1..s_k costs sum(s_i) additions and 1 + sum(s_i)
    multiplications; a leaf costs a single multiplication.
    """
    children = tree.children
    sizes = [1] * tree.n
    mults = 0
    adds = 0
    for node in reversed(tree.order):
        kids = children[node]
        if not kids:
            mults += 1
            continue
        child_total = sum(sizes[kid] for kid in kids)
        sizes[node] = 1 + child_total
        adds += child_total
        mults += 1 + child_total
    return mults, adds


def fit_loglog_slope(sizes: list[int], values: list[int]) -> float:
    """Least-squares slope of log(values) against log(sizes)."""
    if len(sizes) < 2:
        raise ValueError("need at least two points to fit a slope")
    xs = np.log(np.array(sizes, dtype=np.float64))
    ys = np.log(np.array(values, dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])


class BenchRow(NamedTuple):
    q: int
    t: int
    nodes: int
    layers: int
    simplified_terms: int
    simplified_mults: int
    simplified_adds: int
    simplified_work: int
    simplified_seconds: float
    original_status: str
    original_terms: int | None
    original_mults: int | None
    original_adds: int | None
    original_seconds: float | None
    blowup_node: int | None
    term_ratio: float | None


class BenchReport(NamedTuple):
    budget: int
    rows: list[BenchRow]
    slopes: dict[str, dict[str, float | None]]

    def to_json(self) -> str:
        payload = {
            "budget": self.budget,
            "rows": [row._asdict() for row in self.rows],
            "slopes": self.slopes,
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_table(self) -> str:
        header = (
            f"{'q':>2} {'t':>4} {'nodes':>7} {'simp terms':>10} {'simp work':>11} "
            f"{'orig terms':>11} {'orig mults':>12} {'status':>16}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            orig_terms = "-" if row.original_terms is None else str(row.original_terms)
            orig_mults = "-" if row.original_mults is None else str(row.original_mults)
            lines.append(
                f"{row.q:>2} {row.t:>4} {row.nodes:>7} {row.simplified_terms:>10} "
                f"{row.simplified_work:>11} {orig_terms:>11} {orig_mults:>12} "
                f"{row.original_status:>16}"
            )
        lines.append("")
        for family, slopes in self.slopes.items():
            rendered = ", ".join(
                f"{name}={value:.3f}" if value is not None else f"{name}=n/a"
                for name, value in slopes.items()
            )
            lines.append(f"{family}: {rendered}")
        return "\n".join(lines) + "\n"


def run_bench(
    qs: tuple[int, ...] = (1, 2, 3),
    ts: tuple[int, ...] = (2, 4, 8, 16),
    budget: int = 1_000_000,
) -> BenchReport:
    rows: list[BenchRow] = []
    for q in qs:
        for t in ts:
            tree, vocab = family_tree(q, t)
            start = time.perf_counter()
            simp = simplified_polynomial(tree, vocab)
            simp_seconds = time.perf_counter() - start
            mults, adds = simplified_op_counts(tree)

            status = "ok"
            orig_terms = orig_mults = orig_adds = blowup = None
            orig_seconds = None
            start = time.perf_counter()
            try:
                orig = original_polynomial(tree, vocab, term_budget=budget)
                orig_seconds = time.perf_counter() - start
                orig_terms = orig.n_terms
                orig_mults = orig.multiplications
                orig_adds = orig.additions
            except TermExplosionError as exc:
                orig_seconds = time.perf_counter() - start
                status = "budget-exceeded"
                blowup = exc.node

            rows.append(
                BenchRow(
                    q=q,
                    t=t,
                    nodes=tree.n,
                    layers=t + q,
                    simplified_terms=simp.n_terms,
                    simplified_mults=mults,
                    simplified_adds=adds,
                    simplified_work=mults + adds,
                    simplified_seconds=simp_seconds,
                    original_status=status,
                    original_terms=orig_terms,
                    original_mults=orig_mults,
                    original_adds=orig_adds,
                    original_seconds=orig_seconds,
                    blowup_node=blowup,
                    term_ratio=(orig_terms / simp.n_terms) if orig_terms is not None else None,
                )
            )

    slopes: dict[str, dict[str, float | None]] = {}
    for q in qs:
        family_rows = [row for row in rows if row.q == q]
        ok_rows = [row for row in family_rows if row.original_status == "ok"]
        orig_slope = (
            fit_loglog_slope([r.nodes for r in ok_rows], [r.original_mults for r in ok_rows])
            if len(ok_rows) >= 2
            else None
        )
        simp_slope = (
            fit_loglog_slope(
                [r.nodes for r in family_rows], [r.simplified_work for r in family_rows]
            )
            if len(family_rows) >= 2
            else None
        )
        slopes[f"q={q}"] = {
            "original_mults_slope": orig_slope,
            "simplified_work_slope": simp_slope,
        }
    return BenchReport(budget=budget, rows=rows, slopes=slopes)
