"""Shared helpers: tree construction, independent oracles, hypothesis strategies."""

from __future__ import annotations

import importlib.util
import random
import sys
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest

from scoi.treepoly import (
    DependencyTree,
    LabelVocabulary,
    Polynomial,
    PolyColumns,
    encode_term,
    write_polynomial_cache,
)


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that ends with a thread it did not start with."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left running: {left}"


def perfbench_gen():
    """``perfbench/gen.py``, the benchmark's corpus generator, loaded read-only."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # dataclasses look it up
        spec.loader.exec_module(module)
    return module


def make_vocab(n_labels: int) -> LabelVocabulary:
    return LabelVocabulary(f"lab{i}" for i in range(n_labels))


def make_tree(labels, parents) -> DependencyTree:
    return DependencyTree(list(labels), list(parents))


def poly_from_terms(term_maps, dim) -> Polynomial:
    """Build a Polynomial directly from exponent mappings (tests only)."""
    counter: Counter[int] = Counter()
    for mapping in term_maps:
        counter[encode_term(dict(mapping))] += 1
    return Polynomial(counter, dim)


def write_poly_items(path, items, vocab: LabelVocabulary) -> None:
    """Write (record id, polynomial) pairs through the column writer."""
    items = list(items)
    columns = PolyColumns.from_polynomials([rid for rid, _ in items], [poly for _, poly in items])
    write_polynomial_cache(
        path, columns.ids, columns.table, columns.terms, columns.counts, columns.offsets, vocab
    )


def random_recursive_tree(rng: random.Random, n: int, n_labels: int) -> DependencyTree:
    parents = [-1] + [rng.randrange(i) for i in range(1, n)]
    labels = [rng.randrange(n_labels) for _ in range(n)]
    return DependencyTree(labels, parents)


def path_term_oracle(tree: DependencyTree) -> Counter:
    """Independent oracle: walk from every node up to the root, counting labels.

    Returns the multiset of sorted (label, exponent) tuples, one entry per
    node, which is what the simplified construction must produce.
    """
    terms: Counter = Counter()
    for node in range(tree.n):
        counts: Counter = Counter()
        cur = node
        while cur != -1:
            counts[tree.labels[cur]] += 1
            cur = tree.parents[cur]
        terms[tuple(sorted(counts.items()))] += 1
    return terms


def node_depths(tree: DependencyTree) -> list[int]:
    """Depth in nodes (root = 1) for every node, via parent walks."""
    depths = []
    for node in range(tree.n):
        depth = 0
        cur = node
        while cur != -1:
            depth += 1
            cur = tree.parents[cur]
        depths.append(depth)
    return depths


def original_expansion_oracle(tree: DependencyTree, dim: int) -> Counter:
    """Naive recursive symbolic expansion of the two-variable construction.

    Terms are sorted (variable index, exponent) tuples with the head-block
    variable for label l at index dim + l; coefficients are multiplicities.
    Only safe for small trees.
    """

    def term_mul(a, b):
        merged = Counter(dict(a))
        for var, exp in b:
            merged[var] += exp
        return tuple(sorted(merged.items()))

    def poly_mul(p, q):
        out: Counter = Counter()
        for ta, ca in p.items():
            for tb, cb in q.items():
                out[term_mul(ta, tb)] += ca * cb
        return out

    def expand(node):
        kids = tree.children[node]
        if not kids:
            return Counter({((tree.labels[node], 1),): 1})
        acc = expand(kids[0])
        for kid in kids[1:]:
            acc = poly_mul(acc, expand(kid))
        acc[((dim + tree.labels[node], 1),)] += 1
        return acc

    return expand(tree.root)


def manhattan_oracle(s_map: dict, t_map: dict) -> int:
    keys = set(s_map) | set(t_map)
    return sum(abs(s_map.get(k, 0) - t_map.get(k, 0)) for k in keys)


def chamfer_distance_oracle(p: Polynomial, q: Polynomial) -> float:
    """Quadratic brute force over all term pairs, multiplicities expanded."""
    p_terms = [dict(pairs) for pairs, count in p.term_vectors() for _ in range(count)]
    q_terms = [dict(pairs) for pairs, count in q.term_vectors() for _ in range(count)]
    total = 0
    for s in p_terms:
        total += min(manhattan_oracle(s, t) for t in q_terms)
    for t in q_terms:
        total += min(manhattan_oracle(s, t) for s in p_terms)
    return total / (len(p_terms) + len(q_terms))


def make_record(rid: int, tree: DependencyTree, tokens: list[str], vocab: LabelVocabulary):
    """Synthetic example record with its polynomial attached (tests only)."""
    from scoi.corpus import ExampleRecord
    from scoi.coverage import TokenBag
    from scoi.treepoly import simplified_polynomial

    record = ExampleRecord(
        rid, " ".join(tokens), f"tgt-{rid}", tuple(tokens), TokenBag.from_tokens(tokens), tree
    )
    record.poly = simplified_polynomial(tree, vocab)
    return record


def random_record(rng: random.Random, rid: int, vocab: LabelVocabulary, word_vocab: list[str]):
    tree = random_recursive_tree(rng, rng.randint(2, 8), len(vocab))
    tokens = [rng.choice(word_vocab) for _ in range(rng.randint(3, 8))]
    return make_record(rid, tree, tokens, vocab)


def random_pool(rng: random.Random, size: int, vocab: LabelVocabulary, word_vocab: list[str]):
    """Candidate pool with shuffled, non-contiguous ids (exercises tie-breaks)."""
    ids = rng.sample(range(1000), size)
    return [random_record(rng, rid, vocab, word_vocab) for rid in ids]


@st.composite
def tree_strategy(draw, max_nodes: int = 25, max_labels: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parents = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    labels = [draw(st.integers(0, max_labels - 1)) for _ in range(n)]
    return DependencyTree(labels, parents)
