"""Dependency trees, their polynomial fingerprints, and polynomial distance.

A sentence's dependency tree is turned into a multiset of monomial terms.
Two constructions are provided:

* ``simplified_polynomial`` -- one term per node, recording the count of each
  dependency label along the root-to-node path.  One variable per label.
* ``original_polynomial`` -- the exact expanded product form over two
  variable blocks (an ``x`` and a ``y`` variable per label).  Its term count
  can blow up combinatorially, so it runs under an explicit term budget.

The per-tree construction builds terms as packed integers: 32 bits of
exponent per label index, so a monomial is one arbitrary-precision int and
multiplying two monomials is integer addition.  The packed form is
bijective as long as no exponent reaches 2**32, i.e. for any tree with
fewer than 4 billion nodes.  A ``Polynomial`` exposes its terms in one
form, canonical exponent rows (:meth:`Polynomial.rows`).
``canonical_terms`` turns one polynomial's packed keys into those rows, and
nothing turns rows back into keys; ``decode_term`` and ``encode_term`` are
the one-term reference forms.

The build computes the polynomial cache from tree columns instead
(``simplified_rows``), with no tree and no key: a node's term is its
parent's plus one of its own label, so pointer doubling over the parent
map sums every root-to-node path in ceil(log2(depth)) whole-array rounds.
It works on batches of whole trees of at most ``_BATCH_NODES`` nodes,
finds each batch's rows among the distinct rows seen so far by a 64-bit
hash, checked word for word, and keeps only the distinct rows and one id
per node.  The distinct rows, ranked in canonical order, become the
cache's term table, which every record's term ids index.  Canonical order
is the order of ``_sort_keys``, which ``canonical_terms`` sorts by too.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from collections import Counter
from itertools import repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, MalformedTreeError, TermExplosionError, UnknownLabelError
from .manifest import POLY_CACHE_VERSION, atomic_write, compact_json

ROOT = -1

_LABEL_BITS = 32
_LABEL_MASK = (1 << _LABEL_BITS) - 1

# Shift table shared by all vocabularies: _SHIFTS[l] == 1 << (32 * l).
_SHIFTS: list[int] = [1]


def _shifts_for(n_labels: int) -> list[int]:
    while len(_SHIFTS) < n_labels:
        _SHIFTS.append(_SHIFTS[-1] << _LABEL_BITS)
    return _SHIFTS


# A term vector: sorted tuple of (label index, exponent), exponents >= 1.
TermVector = tuple[tuple[int, int], ...]


def decode_term(key: int) -> TermVector:
    """Unpack an integer term key into sorted (label, exponent) pairs."""
    pairs = []
    label = 0
    while key:
        exp = key & _LABEL_MASK
        if exp:
            pairs.append((label, exp))
        key >>= _LABEL_BITS
        label += 1
    return tuple(pairs)


def encode_term(pairs: Iterable[tuple[int, int]] | Mapping[int, int]) -> int:
    """Pack (label, exponent) pairs into an integer term key."""
    items = pairs.items() if isinstance(pairs, Mapping) else pairs
    key = 0
    shifts = _SHIFTS
    for label, exp in items:
        if label < 0 or exp <= 0:
            raise ValueError(f"bad term entry ({label}, {exp})")
        if exp >= (1 << _LABEL_BITS):
            raise ValueError(f"exponent {exp} too large to pack")
        _shifts_for(label + 1)
        key += exp * shifts[label]
    return key


# Big-endian rank types of the sort key, narrowest first.
_RANK_DTYPES = tuple(np.dtype(t) for t in (">u1", ">u2", ">u4", ">u8"))


def _sort_keys(mat: np.ndarray) -> np.ndarray:
    """Big-endian uint64 words, one row of them per row of ``mat``, whose
    lexicographic order is canonical order; equal keys are equal rows.

    A row's key is, per column, its rank as big-endian bytes, zero-padded to
    whole words.  Sorted (label, exponent) pairs compare column by column as
    the exponent where it is nonzero; above every exponent where it is zero
    and a nonzero follows (that row's next pair has a larger label); 0 where
    no nonzero follows (that row's tuple has ended).
    """
    n, dim = mat.shape
    gap = int(mat.max(initial=0)) + 1
    rank = next(t for t in _RANK_DTYPES if gap <= np.iinfo(t).max)
    ranks = np.array(mat.T, dtype=rank.newbyteorder("="), order="C")
    # Right to left, ``later`` marks the rows with a nonzero rank further
    # right: a zero before the row's last nonzero rank is raised to the gap.
    later = np.zeros(n, bool)
    pad = np.empty(n, bool)
    for column in ranks[::-1]:
        np.equal(column, 0, out=pad)
        pad &= later
        later |= column != 0
        column += pad * column.dtype.type(gap)
    key = np.zeros((n, max(8, -(-dim * rank.itemsize // 8) * 8) // rank.itemsize), rank)
    key[:, :dim] = ranks.T
    return key.view(">u8")


def _canonical_order(mat: np.ndarray) -> np.ndarray:
    """The stable order that sorts the rows of ``mat`` canonically."""
    return np.lexsort(_sort_keys(mat).T[::-1])


def _canonical_table(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``rows`` in canonical order, and the int64 index
    in that table of each row."""
    order = _canonical_order(rows)
    ordered = rows.take(order, axis=0)
    new = np.ones(len(rows), bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    index = np.empty(len(rows), np.int64)
    index[order] = np.cumsum(new) - 1
    return ordered[new], index


def canonical_terms(terms: Mapping[int, int], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unpack one polynomial's packed term keys.

    Returns a uint32 exponent matrix over ``dim`` labels, one row per
    distinct term, and int64 ``counts`` (multiplicities), in canonical
    order, the order of ``sorted(decode_term(k) for k in terms)``.  Every
    key must be below ``2 ** (32 * dim)``.  Distinct keys are distinct
    rows, so there is nothing to merge.
    """
    n = len(terms)
    raw = b"".join(map(int.to_bytes, terms, repeat(4 * dim), repeat("little")))
    mat = np.frombuffer(raw, "<u4").reshape(n, dim)
    counts = np.fromiter(terms.values(), np.int64, n)
    order = _canonical_order(mat)
    return mat[order], counts[order]


def _nonzero_rows(mat: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Labels and exponents of mat's nonzero entries, row by row, and row end offsets.

    Row i's entries are ``labels[ends[i-1]:ends[i]]`` (from 0 for row 0).
    """
    rows, labels = np.nonzero(mat)
    ends = np.count_nonzero(mat, axis=1).cumsum()
    return labels.tolist(), mat[rows, labels].tolist(), ends.tolist()


def _term_vectors(mat: np.ndarray, counts: np.ndarray) -> tuple[tuple[TermVector, int], ...]:
    """(term vector, multiplicity) pairs of an exponent matrix's rows, in row order."""
    labels, exps, ends = _nonzero_rows(mat)
    pairs = list(zip(labels, exps))
    vectors = (tuple(pairs[a:b]) for a, b in zip([0, *ends], ends))
    return tuple(zip(vectors, counts.tolist()))


def term_degree(term: TermVector) -> int:
    """Sum of exponents; equals the node count of the encoded path."""
    return sum(e for _, e in term)


def manhattan(s: TermVector, t: TermVector) -> int:
    """L1 distance between two sparse exponent vectors."""
    dist = 0
    i = j = 0
    while i < len(s) and j < len(t):
        ls, es = s[i]
        lt, et = t[j]
        if ls == lt:
            dist += abs(es - et)
            i += 1
            j += 1
        elif ls < lt:
            dist += es
            i += 1
        else:
            dist += et
            j += 1
    for _, e in s[i:]:
        dist += e
    for _, e in t[j:]:
        dist += e
    return dist


class LabelVocabulary:
    """Ordered registry of dependency-label strings.

    Indices are assigned in first-seen order and stay stable for the
    lifetime of a corpus build.  Lookups of unseen labels are ingestion
    errors; use :meth:`add` to intern new labels while ingesting.
    """

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str] = ()):
        self.labels: list[str] = []
        self._index: dict[str, int] = {}
        for label in labels:
            self.add(label)

    def add(self, label: str) -> int:
        idx = self._index.get(label)
        if idx is None:
            idx = len(self.labels)
            self.labels.append(label)
            self._index[label] = idx
        return idx

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"label {label!r} not in vocabulary") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabelVocabulary) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"LabelVocabulary({len(self.labels)} labels)"


def _child_lists(parents: list[int]) -> list[list[int]]:
    """Children of each node in increasing order, then one list of the roots.

    The extra last list is where a parent of ``ROOT`` == -1 lands.
    """
    children: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for i, p in enumerate(parents):
        children[p].append(i)
    return children


class DependencyTree:
    """Rooted labeled tree over one sentence's tokens.

    Nodes are 0..n-1; ``parents[i]`` is the parent index or ``ROOT`` for the
    single root.  ``labels[i]`` is the index of node i's dependency label.
    Construction validates the parent relation (exactly one root, parents in
    range, every node reachable from the root).  ``order`` lists the nodes
    in the order that reachability walk visited them, every parent before
    its children.  ``children`` is rebuilt from ``parents`` on first use and
    is not kept otherwise: a corpus holds many trees, and one list per node
    would be most of their memory.
    """

    __slots__ = ("labels", "parents", "root", "order", "_children")

    def __init__(self, labels: Sequence[int], parents: Sequence[int]):
        n = len(labels)
        if n == 0:
            raise MalformedTreeError("tree must have at least one node")
        if len(parents) != n:
            raise MalformedTreeError("labels and parents length mismatch")
        parents = list(parents)
        n_roots = parents.count(ROOT)
        if n_roots != 1:
            raise MalformedTreeError(f"expected exactly one root, found {n_roots}")
        if min(parents) < ROOT or max(parents) >= n:
            i, p = next((i, p) for i, p in enumerate(parents) if p != ROOT and not 0 <= p < n)
            raise MalformedTreeError(f"node {i} has out-of-range parent {p}")
        children = _child_lists(parents)
        (root,) = children.pop()
        # Reachability from the root rules out parent cycles.
        order: list[int] = []
        visit = order.append
        stack = [root]
        pop = stack.pop
        push = stack.extend
        while stack:
            node = pop()
            visit(node)
            push(children[node])
        if len(order) != n:
            raise MalformedTreeError("parent relation contains a cycle")
        self.labels = list(labels)
        self.parents = parents
        self.root = root
        self.order = order
        self._children: list[list[int]] | None = None

    @property
    def children(self) -> list[list[int]]:
        """Child indices of each node, in increasing order."""
        if self._children is None:
            children = _child_lists(self.parents)
            children.pop()
            self._children = children
        return self._children

    @property
    def n(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"DependencyTree(n={self.n}, root={self.root})"


class Polynomial:
    """Multiset of term vectors produced by the simplified construction.

    ``dim`` is the label vocabulary size the terms were built under, which
    fixes the width of the dense views used by distance and coverage
    computations.  The terms are exposed in one form, :meth:`rows`: an
    unsigned exponent matrix of width ``dim``, one row per distinct term in
    canonical order, and int64 multiplicities, as the polynomial cache
    stores them (:meth:`from_rows`).  The constructor takes the packed term
    keys of the per-tree construction, mapped to multiplicities; such a
    polynomial canonicalizes them on each :meth:`rows` call and keeps
    nothing.
    """

    __slots__ = ("_terms", "_rows", "_counts", "dim")

    def __init__(self, terms: Counter[int], dim: int):
        self._terms: Counter[int] | None = terms
        self._rows: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self.dim = dim

    @classmethod
    def from_rows(cls, rows: np.ndarray, counts: np.ndarray, dim: int) -> "Polynomial":
        """A polynomial over canonical exponent rows (width ``dim``) and their counts."""
        poly = cls.__new__(cls)
        poly._terms = None
        poly._rows = rows
        poly._counts = counts
        poly.dim = dim
        return poly

    @classmethod
    def union(cls, polys: Iterable["Polynomial"]) -> "Polynomial":
        """Multiset union of the polynomials' terms, at the widest of their
        dims: the term table of their columns, each row's count the sum of
        its members' counts."""
        polys = list(polys)
        columns = PolyColumns.from_polynomials(range(len(polys)), polys)
        counts = np.zeros(len(columns.table), np.int64)
        np.add.at(counts, columns.terms, columns.counts)
        return cls.from_rows(columns.table, counts, columns.table.shape[1])

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(distinct terms as an unsigned exponent matrix of width dim, int64 counts).

        Rows are in canonical order, as in :meth:`term_vectors`.  The arrays
        may be read-only views.
        """
        if self._rows is None:
            return canonical_terms(self._terms, self.dim)
        return self._rows, self._counts

    @property
    def n_terms(self) -> int:
        """Term count with multiplicity."""
        if self._rows is None:
            return sum(self._terms.values())
        return int(self._counts.sum())

    @property
    def n_distinct(self) -> int:
        """Distinct-term count: the number of rows of :meth:`rows` and :meth:`dense`."""
        return len(self._terms) if self._rows is None else len(self._rows)

    def term_vectors(self) -> tuple[tuple[TermVector, int], ...]:
        """Decoded (term vector, multiplicity) pairs in canonical order.

        Canonical order is lexicographic over the sorted (label, exponent)
        pairs; the math is order-free but serialization and golden tests
        rely on this being stable.  Not cached.
        """
        return _term_vectors(*self.rows())

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """(distinct terms as a float matrix of width dim, multiplicities).

        Rows are in canonical order, as in :meth:`term_vectors`.  Not cached.
        """
        mat, counts = self.rows()
        return mat.astype(np.float64), counts.astype(np.float64)

    def __eq__(self, other: object) -> bool:
        """Equal term multisets, whatever the dims and row types."""
        if not isinstance(other, Polynomial):
            return False
        mat, counts = self.rows()
        other_mat, other_counts = other.rows()
        width = max(mat.shape[1], other_mat.shape[1])
        return np.array_equal(counts, other_counts) and np.array_equal(
            _pad_to(mat, width), _pad_to(other_mat, width)
        )

    def __repr__(self) -> str:
        return f"Polynomial({self.n_terms} terms, dim={self.dim})"


class OriginalPolynomial:
    """Exact expanded polynomial over the doubled variable set.

    Keys pack exponents over ``2 * dim`` variable slots: label l's product
    variable sits at index l, its head variable at index dim + l.  Term
    multiplicities are expansion coefficients and the term count may exceed
    the node count.  ``multiplications`` / ``additions`` record the term
    operations spent building it, for the scaling harness.
    """

    __slots__ = ("terms", "dim", "multiplications", "additions")

    def __init__(self, terms: Counter[int], dim: int, multiplications: int, additions: int):
        self.terms = terms
        self.dim = dim
        self.multiplications = multiplications
        self.additions = additions

    @property
    def n_terms(self) -> int:
        return sum(self.terms.values())

    def term_vectors(self) -> tuple[tuple[TermVector, int], ...]:
        """(term vector over 2*dim variable indices, multiplicity) pairs."""
        return _term_vectors(*canonical_terms(self.terms, 2 * self.dim))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OriginalPolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        return (
            f"OriginalPolynomial({self.n_terms} terms, dim={self.dim}, "
            f"mults={self.multiplications})"
        )


def check_labels(tree: DependencyTree, vocab_size: int) -> None:
    if min(tree.labels) < 0 or max(tree.labels) >= vocab_size:
        bad = next(l for l in tree.labels if l < 0 or l >= vocab_size)
        raise UnknownLabelError(f"label index {bad} outside vocabulary of size {vocab_size}")


def _jump(anc: np.ndarray, depth: int, rows: np.ndarray | None = None) -> np.ndarray:
    """Pointer jumping: square the ancestor map ``anc``, whose roots point at
    fixed points, until every node points at a fixed point, or for the
    ceil(log2(depth)) + 1 rounds that take every node of a path at most
    ``depth`` long there.  Returns the last map.

    With ``rows``, each round first adds row ``anc[v]`` to row v, so once v
    points at a fixed point with a zero row, row v sums the initial rows of
    every node on v's path: after k rounds it sums v's first 2**k.
    """
    for _ in range((depth - 1).bit_length() + 1):
        up = anc[anc]
        if np.array_equal(up, anc):
            break
        if rows is not None:
            rows += rows[anc]
        anc = up
    return anc


def first_bad_tree(
    labels: np.ndarray, parents: np.ndarray, offsets: np.ndarray, vocab_size: int
) -> tuple[int, str] | None:
    """(position, message) of the first tree that ``DependencyTree`` or
    ``check_labels`` rejects, or None.  Tree i owns entries ``offsets[i]:
    offsets[i+1]``; its parents index its own nodes.  Whole-array checks find
    it: a root count other than one, a node that does not reach the root, a
    label outside the vocabulary.  Roots and nodes with a parent out of range
    point at themselves, and ``_jump`` takes every node of an acyclic tree
    to its root.  The message comes from the per-tree path on the tree
    found, so wording and precedence match.
    """
    # int32 parents (the corpus cache's) get int32 node positions, half the
    # bytes of a corpus-sized check; wider parents are not cut down, where a
    # stray one could alias a node.  A sum that wraps is a stray parent's.
    node = np.int32 if parents.dtype == np.int32 and len(parents) < 2**31 else np.int64
    offsets = offsets.astype(node, copy=False)
    sizes = np.diff(offsets)
    tree_of = np.repeat(np.arange(len(sizes), dtype=node), sizes)
    parents = parents.astype(node)
    is_root = parents == ROOT
    stray = ~is_root & ((parents < 0) | (parents >= sizes[tree_of]))
    anc = np.where(is_root | stray, np.arange(len(parents), dtype=node), offsets[tree_of] + parents)
    anc = _jump(anc, int(sizes.max(initial=1)))
    bad_nodes = ~is_root[anc] | (labels < 0) | (labels >= vocab_size)
    bad = (np.bincount(tree_of[is_root], minlength=len(sizes)) != 1) | (
        np.bincount(tree_of[bad_nodes], minlength=len(sizes)) > 0
    )
    if not bad.any():
        return None
    tree = int(np.argmax(bad))
    a, b = offsets[tree], offsets[tree + 1]
    try:
        check_labels(DependencyTree(labels[a:b].tolist(), parents[a:b].tolist()), vocab_size)
    except (MalformedTreeError, UnknownLabelError) as exc:
        return tree, str(exc)
    raise AssertionError(f"tree {tree} failed a whole-array check but builds")


def simplified_term_counter(tree: DependencyTree, dim: int) -> Counter[int]:
    """Packed term keys of the simplified construction, with multiplicity."""
    check_labels(tree, dim)
    shifts = _shifts_for(dim)
    labels = tree.labels
    parents = tree.parents
    # keys[node] is the packed path term of node; the extra last slot stays 0
    # and is what the root's parent index, ROOT == -1, reads.
    keys = [0] * (len(labels) + 1)
    terms = []
    append = terms.append
    for node in tree.order:
        key = keys[parents[node]] + shifts[labels[node]]
        keys[node] = key
        append(key)
    return Counter(terms)


def simplified_polynomial(tree: DependencyTree, vocab: LabelVocabulary) -> Polynomial:
    """One-variable-set polynomial: one term per root-to-node path.

    Each node contributes the term whose exponents count the dependency
    labels on the path from the root down to it, so the term count equals
    the node count.  One pass over the tree's parent-before-child ``order``;
    deep chains (10k+ nodes) do not touch the call stack.
    """
    d = len(vocab)
    return Polynomial(simplified_term_counter(tree, d), d)


def original_polynomial(
    tree: DependencyTree, vocab: LabelVocabulary, term_budget: int = 1_000_000
) -> OriginalPolynomial:
    """Exact two-variable-set expansion, aborting past ``term_budget`` terms.

    A leaf with label l is the single term x_l; an internal node is its
    head variable y_l plus the product of its children's polynomials.
    Children are expanded left to right.  Operation accounting, used by the
    scaling harness: every pairwise product counts one multiplication per
    term-pair combination (with multiplicity); every internal node counts
    one addition per term of its finished polynomial (the cost of folding
    product terms and the y term together).

    Raises :class:`TermExplosionError` naming the offending node as soon as
    any intermediate polynomial exceeds ``term_budget`` terms (counted with
    multiplicity).
    """
    if term_budget <= 0:
        raise ValueError("term_budget must be positive")
    d = len(vocab)
    check_labels(tree, d)
    shifts = _shifts_for(2 * d)
    labels = tree.labels
    children = tree.children

    polys: dict[int, Counter[int]] = {}
    sizes: dict[int, int] = {}
    multiplications = 0
    additions = 0
    # Reversed pre-order: every child polynomial exists before its parent needs it.
    for node in reversed(tree.order):
        kids = children[node]
        if not kids:
            polys[node] = Counter({shifts[labels[node]]: 1})
            sizes[node] = 1
            continue
        acc = polys.pop(kids[0])
        acc_size = sizes.pop(kids[0])
        for kid in kids[1:]:
            factor = polys.pop(kid)
            sizes.pop(kid)
            product: Counter[int] = Counter()
            size = 0
            for key_a, coef_a in acc.items():
                for key_b, coef_b in factor.items():
                    coef = coef_a * coef_b
                    product[key_a + key_b] += coef
                    multiplications += coef
                    size += coef
                    if size > term_budget:
                        raise TermExplosionError(node, term_budget)
            acc = product
            acc_size = size
        acc[shifts[d + labels[node]]] += 1
        acc_size += 1
        if acc_size > term_budget:
            raise TermExplosionError(node, term_budget)
        additions += acc_size
        polys[node] = acc
        sizes[node] = acc_size
    return OriginalPolynomial(polys[tree.root], d, multiplications, additions)


_scipy_cdist = None


def cdist(xa: np.ndarray, xb: np.ndarray, metric: str) -> np.ndarray:
    """``scipy.spatial.distance.cdist``, with scipy imported on the first call.

    Only the ``cosine`` measure needs it (L1 distances come from
    :func:`cityblock`), so every other run never pays for the import, which
    costs more than the whole scoring of a small select.  The function is
    kept in a global after that: an import statement on every call would
    cost about a fifth of a small ``cdist`` call.
    """
    global _scipy_cdist
    if _scipy_cdist is None:
        from scipy.spatial.distance import cdist as _scipy_cdist
    return _scipy_cdist(xa, xb, metric)


# Entries of b's level matrix built at a time: 256 KiB of float64.
_LEVEL_BLOCK = 1 << 15


def cityblock(a: np.ndarray, b: np.ndarray, b_sums: np.ndarray | None = None) -> np.ndarray:
    """float64 L1 distances between the rows of two nonnegative integer matrices.

    Uses |a - b| = sum(a) + sum(b) - 2 * sum(min(a, b)), all of it one matrix
    product, [-2 * levels(a) | sum(a) | 1] @ [levels(b) | 1 | sum(b)].T, over
    blocks of b's rows of at most ``_LEVEL_BLOCK`` level entries.  Level
    column (l, t) is set in a row whose exponent of label l is at least t,
    for t up to the largest exponent of l on the side with fewer rows and
    the other side's largest row sum: a higher level is unset on one side.
    Columns past the narrower matrix's width count as zeros.  ``b_sums``
    holds b's row sums, if given.  Every partial result is an integer below
    2**53, so each entry equals scipy's ``cdist(a, b, "cityblock")`` bit for
    bit, whatever the order of the additions.
    """
    width = min(a.shape[1], b.shape[1])
    a_sums = a.sum(axis=1, dtype=np.int64)
    if b_sums is None:
        b_sums = b.sum(axis=1, dtype=np.int64)
    small, other_sums = (a, b_sums) if len(a) <= len(b) else (b, a_sums)
    top = np.minimum(small[:, :width].max(axis=0, initial=0),
                     other_sums.max(initial=0)).astype(np.int64)
    labels = np.repeat(np.arange(width), top)
    n = len(labels)
    # At most the small side's largest exponent, so it fits both row types.
    thresholds = np.arange(1, n + 1) - np.repeat(top.cumsum() - top, top)
    thresholds = thresholds.astype(np.result_type(a, b))[:, None]
    # Both sides transposed: one row per level column, then the two others.
    left = np.empty((n + 2, len(a)))
    left[:n] = a.T.take(labels, axis=0) >= thresholds
    left[:n] *= -2.0
    left[n] = a_sums
    left[n + 1] = 1.0
    block = max(1, _LEVEL_BLOCK // (n + 2))
    right = np.empty((n + 2, min(block, len(b))))
    right[n] = 1.0
    out = np.empty((len(a), len(b)))
    for start in range(0, len(b), block):
        part = right[:, :min(block, len(b) - start)]
        part[:n] = b[start:start + block].T.take(labels, axis=0) >= thresholds
        part[n + 1] = b_sums[start:start + block]
        np.matmul(left.T, part, out=out[:, start:start + block])
    return out


def polynomial_distance(p: Polynomial, q: Polynomial) -> float:
    """Symmetric chamfer distance between two term multisets.

    Sum over each side's terms of the L1 distance to the nearest term on
    the other side, normalized by the total term count.  Multiplicities are
    respected on both sides.  Symmetric, zero on identical multisets; the
    triangle inequality is not guaranteed.
    """
    if not p.n_distinct or not q.n_distinct:
        raise ValueError("polynomial_distance requires non-empty polynomials")
    mat_p, counts_p = p.rows()
    mat_q, counts_q = q.rows()
    dists = cityblock(mat_p, mat_q)
    total = float(counts_p.astype(np.float64) @ dists.min(axis=1)) + float(
        counts_q.astype(np.float64) @ dists.min(axis=0)
    )
    return total / (p.n_terms + q.n_terms)


# --- cache files ------------------------------------------------------------


def write_cache(path, header: dict, segments: Iterable[np.ndarray]) -> None:
    """Write a cache file through ``atomic_write``: ``header`` as one compact
    JSON line, then each array as ``np.save`` writes it in C order (``.npy``
    version 1.0), from its own buffer, with no joined copy."""
    with atomic_write(path, "wb") as fh:
        fh.write(compact_json(header).encode("utf-8") + b"\n")
        for segment in segments:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": segment.dtype.str, "fortran_order": False, "shape": segment.shape})
            fh.write(np.ascontiguousarray(segment).reshape(-1).view(np.uint8))


def read_cache(
    path, fmt: str, version: int, what: str, lists: tuple[str, ...], names: Iterable[str]
) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the read-only segments, one per name in order, of a
    ``write_cache`` file.

    A header line that is not a JSON object with ``format`` ``fmt``, ``version``
    ``version`` and a list under each key of ``lists`` is a ``DataError`` naming
    ``path`` as a ``what``.  So is a segment whose header does not parse as a
    ``.npy`` version 1.0 header, or claims objects, sub-arrays, Fortran order
    or more bytes than the file has left; that message names the segment.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != fmt:
            raise DataError(f"{path}: not a {what}")
        if header.get("version") != version:
            raise DataError(f"{path}: unsupported {what} version {header.get('version')}")
        for key in lists:
            if not isinstance(header.get(key), list):
                raise DataError(f"{path}: header has no {key} list")
        size = os.fstat(fh.fileno()).st_size
        segments = {}
        for name in names:
            where = f"{path}: corrupt array segment ({name}: "
            try:
                with warnings.catch_warnings():
                    # numpy warns when it reads a header only after repairing it.
                    warnings.simplefilter("error")
                    if np.lib.format.read_magic(fh) != (1, 0):
                        raise ValueError("not a version 1.0 .npy header")
                    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            # numpy's header parser fails in more ways than ValueError: a corrupt
            # header dict can reach its tokenizer, which raises TokenError.
            except Exception as exc:
                raise DataError(f"{where}{exc})") from None
            count, left = math.prod(shape), size - fh.tell()
            if fortran_order or dtype.hasobject or dtype.shape or min(shape, default=0) < 0 or (
                count * dtype.itemsize > left
            ):
                order = " in Fortran order" if fortran_order else ""
                raise DataError(f"{where}{dtype} of shape {shape}{order}, {left} bytes left)")
            segments[name] = segment = np.fromfile(fh, dtype, count).reshape(shape)
            segment.flags.writeable = False
    return header, segments


def offsets_fit(offsets: np.ndarray, n: int, size: int) -> bool:
    """Whether ``offsets`` can split ``size`` entries among ``n`` records:
    int64, ``n + 1`` long, from 0 to ``size``, nondecreasing."""
    return (offsets.dtype == np.int64 and offsets.shape == (n + 1,) and offsets[0] == 0
            and offsets[-1] == size and not (np.diff(offsets) < 0).any())


def record_of(ids: np.ndarray, offsets: np.ndarray, entry) -> int:
    """The id of the record owning ``entry``: ``ids[i]`` owns ``offsets[i]:offsets[i+1]``."""
    return int(ids[int(offsets.searchsorted(entry, "right")) - 1])


# --- polynomial cache -------------------------------------------------------
#
# A ``write_cache`` file whose header holds the label vocabulary, with five
# segments:
#   table    the distinct exponent rows of all records, of width len(labels),
#            in strictly increasing canonical order, in the narrowest
#            unsigned type that holds the largest term count (uint8, uint16
#            or uint32);
#   terms    int32 table indices: record i owns terms[offsets[i]:offsets[i+1]],
#            strictly increasing, so its terms are distinct and canonical;
#   counts   the multiplicity of each term, in the table's type;
#   offsets  int64, len(ids) + 1;
#   ids      int64 record ids.
# Save -> load -> save is byte-identical.

_POLY_FORMAT = "scoi-polynomials"

_ROW_DTYPES = tuple(np.dtype(t) for t in ("u1", "<u2", "<u4"))


def _row_dtype(largest: int) -> np.dtype:
    """The narrowest row type that holds ``largest``."""
    for dtype in _ROW_DTYPES:
        if largest <= np.iinfo(dtype).max:
            return dtype
    raise ValueError(f"a polynomial of {largest} terms is too large to cache")


# Nodes per batch of ``simplified_rows``: few Python steps, small batch matrices.
_BATCH_NODES = 1 << 14
# Seeds of the row hash that ``simplified_rows`` tries; each is a fresh
# 64-bit hash, and a collision under one makes it try the next.
_HASH_SEEDS = 4
# splitmix64's finalizer multipliers.
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _row_hashes(words: np.ndarray, seed: int) -> np.ndarray:
    """One uint64 per row of the uint64 matrix ``words``, equal for equal
    rows: each word is xored in and mixed by xor-shift-multiply steps."""
    hashes = np.full(len(words), np.uint64(seed))
    for word in words.T:
        hashes ^= word
        for shift, mix in zip((30, 27), _MIX):
            hashes ^= hashes >> np.uint64(shift)
            hashes *= mix
        hashes ^= hashes >> np.uint64(31)
    return hashes


def _batches(offsets: np.ndarray) -> Iterator[tuple[int, int]]:
    """(start, end) of consecutive batches of whole trees: trees
    ``start:end`` hold at most ``_BATCH_NODES`` nodes, or are one tree."""
    start, n_trees = 0, len(offsets) - 1
    while start < n_trees:
        end = int(offsets.searchsorted(offsets[start] + _BATCH_NODES, "right")) - 1
        end = max(start + 1, end)
        yield start, end
        start = end


def _distinct_rows(
    labels: np.ndarray, parents: np.ndarray, offsets: np.ndarray, dim: int,
    dtype: np.dtype, seed: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct simplified-construction rows of the trees, in the order
    first found, and the int32 index among them of each node's row; None if
    two different rows share a hash under ``seed``.  Each batch's rows are
    looked up by hash among the rows already found, and every row is then
    compared word for word with the row of its index."""
    sizes = np.diff(offsets)
    # Rows padded with zero columns to whole uint64 words.
    width = -(-dim * dtype.itemsize // 8) * 8 // dtype.itemsize
    found = np.zeros((min(int(offsets[-1]), 1 << 16), width), dtype)
    n_found = 0
    known = np.zeros(0, np.uint64)  # the found rows' hashes, sorted
    known_ids = np.zeros(0, np.int64)  # and their indices
    node_ids = np.empty(int(offsets[-1]), np.int32)
    for start, end in _batches(offsets):
        a, n = int(offsets[start]), int(offsets[end] - offsets[start])
        position = np.repeat(np.arange(end - start), sizes[start:end])
        local = parents[a:a + n]
        # A node's term is its parent's plus one of its own label.  A root's
        # parent is the extra zero row n, and pointer jumping sums each path.
        anc = np.full(n + 1, n)
        is_child = local != ROOT
        anc[:n][is_child] = (offsets[start:end] - a)[position[is_child]] + local[is_child]
        rows = np.zeros((n + 1, width), dtype)
        rows[np.arange(n), labels[a:a + n]] = 1
        _jump(anc, int(sizes[start:end].max()), rows)
        words = rows[:n].view(np.uint64)
        hashes, group = np.unique(_row_hashes(words, seed), return_inverse=True)
        at = known.searchsorted(hashes)
        hit = at < len(known)
        hit[hit] = known[at[hit]] == hashes[hit]
        ids = np.empty(len(hashes), np.int64)
        ids[hit] = known_ids[at[hit]]
        new = np.flatnonzero(~hit)
        ids[new] = np.arange(n_found, n_found + len(new))
        if n_found + len(new) > len(found):
            grown = np.zeros_like(found, shape=(len(found) + len(new), width))
            found = np.concatenate([found, grown])
        member = np.empty(len(hashes), np.int64)
        member[group] = np.arange(n)
        found[n_found:n_found + len(new)] = rows[member[new]]
        n_found += len(new)
        known = np.insert(known, at[new], hashes[new])
        known_ids = np.insert(known_ids, at[new], ids[new])
        node = ids[group]
        if (words != found.view(np.uint64)[node]).any():
            return None
        node_ids[a:a + n] = node
    return found[:n_found, :dim], node_ids


def simplified_rows(
    labels: np.ndarray, parents: np.ndarray, offsets: np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The simplified polynomials of trees given as columns, as the
    polynomial cache stores them; no tree and no term key is built.

    Tree i owns entries ``offsets[i]:offsets[i+1]``, its parents index its
    own nodes, and it has passed ``first_bad_tree`` for ``dim`` labels.
    Returns the ``table`` of distinct term rows in canonical order, int32
    ``terms`` (table indices), their ``counts`` (multiplicities) and int64
    ``offsets``: tree i owns terms ``offsets[i]:offsets[i+1]``, strictly
    increasing.  The table and counts are in the row type of the largest
    tree.  ``table[terms]`` and ``counts`` of tree i equal ``canonical_terms``
    of its ``simplified_term_counter``.
    """
    sizes = np.diff(offsets)
    dtype = _row_dtype(int(sizes.max(initial=0)))
    for seed in range(_HASH_SEEDS):
        distinct = _distinct_rows(labels, parents, offsets, dim, dtype, seed)
        if distinct is not None:
            break
    else:
        raise RuntimeError(f"term rows share a 64-bit hash under each of {_HASH_SEEDS} seeds")
    rows, node_ids = distinct
    # The rows are distinct, so their canonical ranks are their table ids.
    order = _canonical_order(rows)
    table = rows.take(order, axis=0)
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order))
    n_rows = max(len(table), 1)
    # The leading 0 of ``distinct`` makes its cumulative sum the term offsets.
    terms, counts = [np.zeros(0, np.int32)], [np.zeros(0, dtype)]
    distinct = [np.zeros(1, np.int64)]
    for start, end in _batches(offsets):
        # One sort by (tree, canonical rank) puts equal terms of a tree side
        # by side, in canonical order.
        key = np.repeat(np.arange(end - start) * n_rows, sizes[start:end])
        key += rank[node_ids[offsets[start]:offsets[end]]]
        key.sort()
        first = np.ones(len(key), bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        first = np.flatnonzero(first)
        tree, term = np.divmod(key[first], n_rows)
        terms.append(term.astype(np.int32))
        counts.append(np.diff(first, append=len(key)).astype(dtype))
        distinct.append(np.bincount(tree, minlength=end - start))
    return table, np.concatenate(terms), np.concatenate(counts), np.concatenate(distinct).cumsum()


def write_polynomial_cache(
    path, ids: np.ndarray, table: np.ndarray, terms: np.ndarray, counts: np.ndarray,
    offsets: np.ndarray, vocab: LabelVocabulary,
) -> None:
    """Write the cache from columns, as ``simplified_rows`` gives them:
    record ``ids[i]`` owns the ``terms``, indices into the canonical
    ``table``, and their ``counts`` at ``offsets[i]:offsets[i+1]``.

    A path exponent counts nodes, so no exponent and no multiplicity exceeds
    its polynomial's term count, and the largest term count fixes the row
    type.
    """
    # reduceat would give a record without terms its neighbour's first count.
    starts = offsets[:-1][np.diff(offsets) > 0]
    dtype = _row_dtype(int(np.add.reduceat(counts, starts, dtype=np.int64).max(initial=0)))
    if not np.can_cast(table.dtype, dtype):
        bad = np.flatnonzero(table.max(axis=1, initial=0) > np.iinfo(dtype).max)
        if bad.size:
            used = np.flatnonzero(np.isin(terms, bad))
            where = (f"record {record_of(ids, offsets, used[0])}" if used.size
                     else f"term row {bad[0]}")
            raise ValueError(f"{where}: exponent above its term count")
    header = {"format": _POLY_FORMAT, "version": POLY_CACHE_VERSION, "labels": vocab.labels}
    write_cache(path, header, (
        table.astype(dtype, copy=False), terms.astype(np.int32, copy=False),
        counts.astype(dtype, copy=False), offsets.astype(np.int64, copy=False),
        np.asarray(ids, dtype=np.int64),
    ))


def offsets_from_sizes(sizes) -> np.ndarray:
    """int64 offsets: item i owns entries ``offsets[i]:offsets[i+1]``."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _pad_to(mat: np.ndarray, width: int) -> np.ndarray:
    """``mat`` with zero columns appended up to ``width``."""
    if mat.shape[1] == width:
        return mat
    return np.pad(mat, ((0, 0), (0, width - mat.shape[1])))


class PolyColumns(NamedTuple):
    """A polynomial cache's columns: record ``ids[i]`` owns the term ids
    ``terms`` and the ``counts`` at ``offsets[i]:offsets[i+1]``.  A term id
    indexes the exponent rows of ``table``, which are distinct and in
    canonical order, so each record's terms are too.  No matrix of every
    record's rows is made: :meth:`polynomial` gathers one record's."""

    ids: np.ndarray
    table: np.ndarray
    terms: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_polynomials(cls, ids, polys: Sequence[Polynomial]) -> "PolyColumns":
        """The polynomials' terms in one table, polynomial i's as record
        ``ids[i]``'s; rows narrower than the widest are zero-padded."""
        parts = [poly.rows() for poly in polys]
        width = max((mat.shape[1] for mat, _ in parts), default=0)
        rows = np.concatenate(
            [np.zeros((0, width), np.uint8), *(_pad_to(mat, width) for mat, _ in parts)]
        )
        counts = np.concatenate([np.zeros(0, np.int64), *(counts for _, counts in parts)])
        offsets = offsets_from_sizes([len(mat) for mat, _ in parts])
        table, terms = _canonical_table(rows)
        return cls(np.asarray(ids, np.int64), table, terms.astype(np.int32), counts, offsets)

    def polynomial(self, i: int) -> Polynomial:
        """Record i's polynomial, over its rows gathered from the table."""
        a, b = self.offsets[i], self.offsets[i + 1]
        return Polynomial.from_rows(self.table.take(self.terms[a:b], axis=0),
                                    self.counts[a:b].astype(np.int64), self.table.shape[1])


def read_polynomial_columns(path) -> tuple[LabelVocabulary, PolyColumns]:
    """The vocabulary and the validated columns; the arrays are read-only."""
    header, segments = read_cache(path, _POLY_FORMAT, POLY_CACHE_VERSION, "polynomial cache",
                                  ("labels",), ("table", "terms", "counts", "offsets", "ids"))
    table, terms, counts, offsets, ids = segments.values()
    vocab = LabelVocabulary(header["labels"])
    dim = len(vocab)
    if table.ndim != 2 or table.shape[1] != dim:
        raise DataError(f"{path}: term rows of shape {table.shape} for a {dim}-label vocabulary")
    if table.dtype.kind != "u" or table.dtype.itemsize > 4:
        raise DataError(
            f"{path}: term rows of dtype {table.dtype}, not an unsigned integer of at most 32 bits"
        )
    if terms.ndim != 1 or terms.dtype != np.int32:
        raise DataError(f"{path}: segment terms is not a one-dimensional <i4 array")
    if counts.shape != terms.shape or counts.dtype != table.dtype:
        raise DataError(
            f"{path}: {counts.dtype} multiplicities of shape {counts.shape} "
            f"for {len(terms)} {table.dtype} term rows"
        )
    if ids.ndim != 1 or ids.dtype != np.int64 or not offsets_fit(offsets, len(ids), len(terms)):
        raise DataError(
            f"{path}: record offsets do not match the {ids.size} record ids "
            f"and {len(terms)} term rows"
        )

    def fail(entry, reason: str):
        raise DataError(f"{path}: record {record_of(ids, offsets, entry)}: {reason}")

    bad = np.flatnonzero(counts < 1)
    if bad.size:
        fail(bad[0], f"multiplicity {counts[bad[0]]} is not positive")
    bad = np.flatnonzero((terms < 0) | (terms >= len(table)))
    if bad.size:
        fail(bad[0], f"term id {terms[bad[0]]} outside the table of {len(table)} term rows")
    rises = terms[1:] > terms[:-1]
    # A record's first term need not rise above the one before it.
    starts = offsets[1:-1]
    rises[starts[(starts > 0) & (starts < len(terms))] - 1] = True
    bad = np.flatnonzero(~rises)
    if bad.size:
        j = bad[0] + 1
        fail(j, f"term id {terms[j]} is not above the term id {terms[j - 1]} before it")
    keys = _sort_keys(table)
    keys = keys.view(f"S{keys.shape[1] * 8}")[:, 0]
    bad = np.flatnonzero(keys[1:] <= keys[:-1])
    if bad.size:
        row = bad[0] + 1
        where = f"term row {row} is not above term row {row - 1} in canonical order"
        used = np.flatnonzero(terms == row)
        if used.size:
            fail(used[0], where)
        raise DataError(f"{path}: {where}")
    return vocab, PolyColumns(ids, table, terms, counts, offsets)


def read_polynomial_cache(path) -> tuple[LabelVocabulary, list[tuple[int, Polynomial]]]:
    """The vocabulary and (record id, polynomial) pairs of
    ``read_polynomial_columns``."""
    vocab, columns = read_polynomial_columns(path)
    return vocab, [(rid, columns.polynomial(i)) for i, rid in enumerate(columns.ids.tolist())]
