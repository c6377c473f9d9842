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

The build computes the polynomial cache's rows from tree columns instead
(``simplified_rows``), with no tree and no key: a node's term is its
parent's plus one of its own label, so pointer doubling over the parent
map sums every root-to-node path in ceil(log2(depth)) whole-array rounds.
It works on batches of whole trees of at most ``_BATCH_NODES`` nodes and
sorts and merges each batch's rows with ``_merge_rows``, the step
``Polynomial.union`` uses on its members' rows.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import Counter
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, MalformedTreeError, TermExplosionError, UnknownLabelError
from .manifest import POLY_CACHE_VERSION, atomic_write, compact_json, read_header

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


# Big-endian rank types of the batch sort key, narrowest first.
_RANK_DTYPES = tuple(np.dtype(t) for t in (">u1", ">u2", ">u4", ">u8"))


def _canonical_order(mat: np.ndarray, position: np.ndarray) -> np.ndarray:
    """The stable order that sorts the rows of ``mat`` by ``position``, then
    in canonical order.

    One sort over fixed-width byte keys: a row's key is its position, then
    per column its rank, as big-endian bytes.  Sorted (label, exponent)
    pairs compare column by column as the exponent where it is nonzero;
    above every exponent where it is zero and a nonzero follows (that row's
    next pair has a larger label); 0 where no nonzero follows (that row's
    tuple has ended).  Equal keys are equal rows of one position.
    """
    n, dim = mat.shape
    gap = int(mat.max(initial=0)) + 1
    rank = next(t for t in _RANK_DTYPES if gap <= np.iinfo(t).max)
    ranks = mat.astype(rank.newbyteorder("="))
    nonzero = ranks != 0
    column = np.arange(1, dim + 1, dtype=np.min_scalar_type(dim))
    last = (nonzero * column).max(axis=1, initial=0)
    ranks[~nonzero & (column <= last[:, None])] = gap
    key = np.empty((n, 4 + dim * rank.itemsize), dtype=np.uint8)
    key[:, :4] = position.astype(">u4")[:, None].view(np.uint8)
    key[:, 4:] = ranks.astype(rank).view(np.uint8)
    return np.argsort(key.view(f"S{key.shape[1]}")[:, 0], kind="stable")


def canonical_terms(terms: Mapping[int, int], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unpack one polynomial's packed term keys.

    Returns a uint32 exponent matrix over ``dim`` labels, one row per
    distinct term, and int64 ``counts`` (multiplicities), in canonical
    order, the order of ``sorted(decode_term(k) for k in terms)``.  Every
    key must be below ``2 ** (32 * dim)``.
    """
    n = len(terms)
    raw = b"".join(map(int.to_bytes, terms, repeat(4 * dim), repeat("little")))
    mat = np.frombuffer(raw, "<u4").reshape(n, dim)
    counts = np.fromiter(terms.values(), np.int64, n)
    order = _canonical_order(mat, np.zeros(n, np.int64))
    return mat[order], counts[order]


def _merge_rows(
    rows: np.ndarray, counts: np.ndarray, position: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows with nondecreasing ``position``, sorted by it and then in
    canonical order, equal rows of one position merged into one whose count
    is the sum of theirs.

    Returns the merged rows, their counts, and ``first``: the index of each
    merged row's first source row in sorted order, so ``position[first]``
    is each merged row's position.
    """
    order = _canonical_order(rows, position)
    rows = rows[order]
    first = np.ones(len(rows), bool)
    first[1:] = (position[1:] != position[:-1]) | (rows[1:] != rows[:-1]).any(axis=1)
    first = np.flatnonzero(first)
    return rows[first], np.add.reduceat(counts[order], first), first


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
        dims: their rows, zero-padded to that width, merged as one."""
        polys = list(polys)
        columns = PolyColumns.from_polynomials(range(len(polys)), polys)
        rows, counts, _ = _merge_rows(
            columns.rows, columns.counts, np.zeros(len(columns.rows), np.int64)
        )
        return cls.from_rows(rows, counts, columns.rows.shape[1])

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
    sizes = np.diff(offsets)
    tree_of = np.repeat(np.arange(len(sizes)), sizes)
    parents = parents.astype(np.int64)
    is_root = parents == ROOT
    stray = ~is_root & ((parents < 0) | (parents >= sizes[tree_of]))
    anc = np.where(is_root | stray, np.arange(len(parents)), offsets[tree_of] + parents)
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


def cityblock(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """float64 L1 distances between the rows of two nonnegative integer matrices.

    Uses |a - b| = sum(a) + sum(b) - 2 * sum(min(a, b)), with the sum of
    minima one matrix product of 0/1 level matrices: column (l, t) is set
    in a row whose exponent of label l is at least t, for t up to the
    smaller of the two sides' largest exponent of l.  Columns past the
    narrower matrix's width count as zeros.  The product is reduced in
    place, -2 * common + sum(a) + sum(b), with no table-sized temporary.
    Every partial result is an integer below 2**53, so each step is exact
    and the order changes no bit: each entry is the same float as
    ``scipy.spatial.distance.cdist(a, b, "cityblock")`` gives, and
    independent of the other rows.
    """
    width = min(a.shape[1], b.shape[1])
    a_sums = a.sum(axis=1, dtype=np.int64)
    b_sums = b.sum(axis=1, dtype=np.int64)
    top = np.minimum(
        a[:, :width].max(axis=0, initial=0), b[:, :width].max(axis=0, initial=0)
    ).astype(np.int64)
    labels = np.repeat(np.arange(width), top)
    thresholds = np.arange(1, len(labels) + 1) - np.repeat(top.cumsum() - top, top)
    a_levels = (a[:, labels] >= thresholds).astype(np.float64)
    b_levels = (b[:, labels] >= thresholds).astype(np.float64)
    out = a_levels @ b_levels.T
    out *= -2.0
    out += a_sums[:, None]
    out += b_sums
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


# --- polynomial cache -------------------------------------------------------
#
# One JSON header line (format tag, version, label vocabulary), then four raw
# .npy segments:
#   rows     every record's distinct terms in canonical order, one exponent
#            row of width len(labels) each, in the narrowest unsigned type
#            that holds the largest term count (uint8, uint16 or uint32);
#   counts   int64 multiplicity of each row;
#   offsets  int64, len(ids) + 1: record i owns rows offsets[i]:offsets[i+1];
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


# Nodes per batch of ``simplified_rows``: few sorts, and small batch matrices.
_BATCH_NODES = 1 << 12


def simplified_rows(
    labels: np.ndarray, parents: np.ndarray, offsets: np.ndarray, dim: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The simplified polynomials of trees given as columns, as the
    polynomial cache stores them; no tree or term key is built.

    Tree i owns entries ``offsets[i]:offsets[i+1]``, its parents index its
    own nodes, and it has passed ``first_bad_tree`` for ``dim`` labels.
    Returns the distinct term rows as one matrix per batch of whole trees
    (at most ``_BATCH_NODES`` nodes, or one larger tree), in the row type of
    the largest tree; int64 ``counts`` (multiplicities); and int64
    ``offsets``: tree i owns rows ``offsets[i]:offsets[i+1]``, in canonical
    order.  Tree i's rows and counts equal ``canonical_terms`` of its
    ``simplified_term_counter``.
    """
    sizes = np.diff(offsets)
    dtype = _row_dtype(int(sizes.max(initial=0)))
    # The leading 0 of ``distinct`` makes its cumulative sum the row offsets.
    batches, counts, distinct = [], [np.zeros(0, np.int64)], [np.zeros(1, np.int64)]
    start = 0
    while start < len(sizes):
        end = int(offsets.searchsorted(offsets[start] + _BATCH_NODES, "right")) - 1
        end = max(start + 1, end)
        a, n = int(offsets[start]), int(offsets[end] - offsets[start])
        position = np.repeat(np.arange(end - start), sizes[start:end])
        local = parents[a:a + n]
        # A node's term is its parent's plus one of its own label.  A root's
        # parent is the extra zero row n, and pointer jumping sums each path.
        anc = np.full(n + 1, n)
        is_child = local != ROOT
        anc[:n][is_child] = (offsets[start:end] - a)[position[is_child]] + local[is_child]
        rows = np.zeros((n + 1, dim), dtype)
        rows[np.arange(n), labels[a:a + n]] = 1
        _jump(anc, int(sizes[start:end].max()), rows)
        rows, batch_counts, first = _merge_rows(rows[:n], np.ones(n, np.int64), position)
        batches.append(rows)
        counts.append(batch_counts)
        distinct.append(np.bincount(position[first], minlength=end - start))
        start = end
    return batches, np.concatenate(counts), np.concatenate(distinct).cumsum()


def write_polynomial_cache(
    path, ids: np.ndarray, rows: Sequence[np.ndarray], counts: np.ndarray,
    offsets: np.ndarray, vocab: LabelVocabulary,
) -> None:
    """Write the cache from columns, as ``simplified_rows`` gives them:
    record ``ids[i]`` owns term rows ``offsets[i]:offsets[i+1]`` and their
    ``counts``.  The row matrices of ``rows`` are streamed after the rows
    header one after another, and not joined.

    A path exponent counts nodes, so no exponent exceeds its polynomial's
    term count, and the largest term count fixes the row type.
    """
    dim = len(vocab)
    n_rows = sum(map(len, rows))
    terms = np.concatenate(([0], np.cumsum(counts)))[offsets]
    dtype = _row_dtype(int(np.diff(terms).max(initial=0)))
    limit = np.iinfo(dtype).max
    header = {"format": _POLY_FORMAT, "version": POLY_CACHE_VERSION, "labels": vocab.labels}
    with atomic_write(path, "wb") as fh:
        fh.write(compact_json(header).encode("utf-8") + b"\n")
        np.lib.format.write_array_header_1_0(
            fh, {"descr": dtype.str, "fortran_order": False, "shape": (n_rows, dim)}
        )
        start = 0
        for batch in rows:
            if not np.can_cast(batch.dtype, dtype):
                bad = np.flatnonzero(batch.max(axis=1, initial=0) > limit)
                if bad.size:
                    record = ids[int(offsets.searchsorted(start + bad[0], "right")) - 1]
                    raise ValueError(f"record {record}: exponent above its term count")
            fh.write(batch.astype(dtype, copy=False).tobytes())
            start += len(batch)
        np.save(fh, counts.astype(np.int64, copy=False))
        np.save(fh, offsets.astype(np.int64, copy=False))
        np.save(fh, np.asarray(ids, dtype=np.int64))


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
    """A polynomial cache's columns: record ``ids[i]`` owns the exponent
    ``rows`` and int64 ``counts`` at ``offsets[i]:offsets[i+1]``, in
    canonical order."""

    ids: np.ndarray
    rows: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_polynomials(cls, ids, polys: Sequence[Polynomial]) -> "PolyColumns":
        """The polynomials' rows in one matrix, polynomial i's as record
        ``ids[i]``'s; rows narrower than the widest are zero-padded."""
        parts = [poly.rows() for poly in polys]
        width = max((mat.shape[1] for mat, _ in parts), default=0)
        rows = np.concatenate(
            [np.zeros((0, width), np.uint8), *(_pad_to(mat, width) for mat, _ in parts)]
        )
        counts = np.concatenate([np.zeros(0, np.int64), *(counts for _, counts in parts)])
        offsets = offsets_from_sizes([len(mat) for mat, _ in parts])
        return cls(np.asarray(ids, np.int64), rows, counts, offsets)

    def polynomial(self, i: int) -> Polynomial:
        """Record i's polynomial, over views of the columns."""
        a, b = self.offsets[i], self.offsets[i + 1]
        return Polynomial.from_rows(self.rows[a:b], self.counts[a:b], self.rows.shape[1])


def load_segments(fh, path, names: Iterable[str]) -> dict[str, np.ndarray]:
    """The ``.npy`` segments that follow a cache's header line in ``fh``,
    one per name, in order.  Both cache readers read through this.

    A segment whose header does not parse as a version 1.0 header, or
    claims a shape the rest of the file cannot hold, objects, sub-arrays
    or Fortran order, is a ``DataError`` naming ``path`` and the segment.
    """
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
        segments[name] = np.fromfile(fh, dtype, count).reshape(shape)
    return segments


def read_polynomial_columns(path) -> tuple[LabelVocabulary, PolyColumns]:
    """The vocabulary and the validated columns; the arrays are read-only,
    and the rows are trusted to be in canonical order."""
    with open(path, "rb") as fh:
        header = read_header(
            fh, path, _POLY_FORMAT, POLY_CACHE_VERSION, "polynomial cache", "labels"
        )
        segments = load_segments(fh, path, ("rows", "counts", "offsets", "ids"))
    rows, counts, offsets, ids = segments.values()
    vocab = LabelVocabulary(header["labels"])
    dim = len(vocab)
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise DataError(f"{path}: term rows of shape {rows.shape} for a {dim}-label vocabulary")
    if rows.dtype.kind != "u" or rows.dtype.itemsize > 4:
        raise DataError(
            f"{path}: term rows of dtype {rows.dtype}, not an unsigned integer of at most 32 bits"
        )
    if counts.shape != (len(rows),) or counts.dtype != np.int64:
        raise DataError(
            f"{path}: {counts.dtype} multiplicities of shape {counts.shape} "
            f"for {len(rows)} term rows"
        )
    if (
        ids.ndim != 1 or ids.dtype != np.int64 or offsets.dtype != np.int64
        or offsets.shape != (len(ids) + 1,) or offsets[0] != 0 or offsets[-1] != len(rows)
        or (offsets[1:] < offsets[:-1]).any()
    ):
        raise DataError(
            f"{path}: record offsets do not match the {ids.size} record ids "
            f"and {len(rows)} term rows"
        )
    bad = np.flatnonzero(counts < 1)
    if bad.size:
        record = ids[np.searchsorted(offsets, bad[0], side="right") - 1]
        raise DataError(f"{path}: record {record}: multiplicity {counts[bad[0]]} is not positive")
    for array in (rows, counts, offsets, ids):
        array.flags.writeable = False
    return vocab, PolyColumns(ids, rows, counts, offsets)


def read_polynomial_cache(path) -> tuple[LabelVocabulary, list[tuple[int, Polynomial]]]:
    """The vocabulary and (record id, polynomial) pairs of
    ``read_polynomial_columns``; the polynomials share its arrays."""
    vocab, columns = read_polynomial_columns(path)
    return vocab, [(rid, columns.polynomial(i)) for i, rid in enumerate(columns.ids.tolist())]
