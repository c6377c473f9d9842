import io
import itertools
import json
import random
import tracemalloc
from collections import Counter

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings
from scipy.spatial.distance import cdist

import scoi.treepoly
from scoi.errors import DataError, MalformedTreeError, TermExplosionError, UnknownLabelError
from scoi.treepoly import (
    DependencyTree,
    Polynomial,
    canonical_terms,
    check_labels,
    cityblock,
    decode_term,
    encode_term,
    first_bad_tree,
    manhattan,
    original_polynomial,
    polynomial_distance,
    read_cache,
    read_polynomial_cache,
    simplified_polynomial,
    simplified_rows,
    simplified_term_counter,
    write_cache,
    write_polynomial_cache,
)

from conftest import (
    chamfer_distance_oracle,
    make_tree,
    make_vocab,
    node_depths,
    original_expansion_oracle,
    path_term_oracle,
    poly_from_terms,
    random_recursive_tree,
    tree_strategy,
    write_poly_items,
)


def decoded_counter(poly) -> Counter:
    return Counter(dict(poly.term_vectors()))


def scalar_term_vectors(terms) -> list:
    """Reference decode of packed term keys: one at a time through decode_term, then sorted."""
    return sorted((decode_term(k), c) for k, c in terms.items())


def scalar_dense(terms, dim) -> tuple[np.ndarray, np.ndarray]:
    vectors = scalar_term_vectors(terms)
    mat = np.zeros((len(vectors), dim), dtype=np.float64)
    counts = np.empty(len(vectors), dtype=np.float64)
    for row, (pairs, count) in enumerate(vectors):
        counts[row] = count
        for label, exp in pairs:
            mat[row, label] = exp
    return mat, counts


def read_segments(path) -> tuple[bytes, list[np.ndarray]]:
    """A polynomial cache's header line and its five arrays: table, terms,
    counts, offsets, ids."""
    with open(path, "rb") as fh:
        header = fh.readline()
        return header, [np.load(fh) for _ in range(5)]


def write_segments(path, header: bytes, arrays) -> None:
    with open(path, "wb") as fh:
        fh.write(header)
        for array in arrays:
            np.save(fh, array)


def chain(labels) -> DependencyTree:
    """A path: node i hangs off node i - 1."""
    return DependencyTree(list(labels), [-1] + list(range(len(labels) - 1)))


class TestTermEncoding:
    def test_round_trip(self):
        pairs = ((0, 2), (3, 5), (44, 1))
        assert decode_term(encode_term(pairs)) == pairs

    def test_multiplication_is_addition(self):
        a = encode_term({0: 1, 2: 3})
        b = encode_term({2: 1, 5: 2})
        assert decode_term(a + b) == ((0, 1), (2, 4), (5, 2))

    def test_manhattan(self):
        assert manhattan(((0, 1),), ((1, 1),)) == 2
        assert manhattan(((0, 1), (1, 2)), ((0, 1), (1, 2))) == 0
        assert manhattan(((0, 3),), ((0, 1), (4, 2))) == 4

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            encode_term({0: 0})
        with pytest.raises(ValueError):
            encode_term({-1: 1})


# Exponents around the rank byte widths: top + 1 above 255 needs two bytes
# per rank, above 65,535 four, above 2**32 - 1 eight.
EXPONENTS = st.one_of(
    st.integers(1, 4), st.sampled_from([254, 255, 256, 65_534, 65_535, 65_536, 2**32 - 1])
)


@st.composite
def term_maps(draw, dim: int):
    """One polynomial's packed keys with multiplicities; terms may skip labels."""
    terms = draw(st.lists(
        st.dictionaries(st.integers(0, dim - 1), EXPONENTS, min_size=1, max_size=dim),
        min_size=1, max_size=8,
    ))
    return {encode_term(t): draw(st.integers(1, 5)) for t in terms}


def oracle_rows(term_map, dim) -> tuple[list, list]:
    """Rows and counts in canonical order: ``sorted(decode_term(k))`` with multiplicities."""
    rows, counts = [], []
    for pairs, count in sorted((decode_term(k), c) for k, c in term_map.items()):
        row = [0] * dim
        for label, exp in pairs:
            row[label] = exp
        rows.append(row)
        counts.append(count)
    return rows, counts


class TestCanonicalTerms:
    """The vectorized unpack must reproduce the one-term reference decode exactly."""

    def assert_matches_reference(self, maps, dim, tmp_path, name="poly.bin") -> np.dtype:
        """Check the polynomials of packed term maps ``maps`` and their cached
        copies against the reference decode; returns the cache's row type."""
        polys = [Polynomial(terms, dim) for terms in maps]
        vocab = make_vocab(dim)
        path = tmp_path / name
        write_poly_items(path, list(enumerate(polys)), vocab)
        _, loaded = read_polynomial_cache(path)
        assert [i for i, _ in loaded] == list(range(len(polys)))
        for terms, poly, (_, cached) in zip(maps, polys, loaded):
            ref_mat, ref_counts = scalar_dense(terms, dim)
            rows, row_counts = cached.rows()
            assert rows.dtype.kind == "u" and row_counts.dtype == np.int64
            assert np.array_equal(rows.astype(np.float64), ref_mat) and rows.shape == ref_mat.shape
            assert np.array_equal(row_counts, ref_counts)
            for p in (poly, cached):
                mat, counts = p.dense()
                assert mat.dtype == counts.dtype == np.float64
                assert np.array_equal(mat, ref_mat) and mat.shape == ref_mat.shape
                assert np.array_equal(counts, ref_counts)
                assert list(p.term_vectors()) == scalar_term_vectors(terms)
                assert p.n_terms == sum(terms.values()) and p.n_distinct == len(terms)
            assert cached == poly
        again = tmp_path / f"again-{name}"
        write_poly_items(again, loaded, vocab)
        assert again.read_bytes() == path.read_bytes()
        return read_segments(path)[1][0].dtype

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 5, 37, 40]).flatmap(
        lambda dim: st.tuples(st.just(dim), st.lists(tree_strategy(max_nodes=30, max_labels=dim),
                                                     min_size=1, max_size=4))
    ))
    def test_random_trees_match_scalar_decode(self, tmp_path_factory, dim_trees):
        dim, trees = dim_trees
        maps = [simplified_term_counter(tree, dim) for tree in trees]
        tmp = tmp_path_factory.mktemp("poly")
        assert self.assert_matches_reference(maps, dim, tmp) == np.uint8

    @pytest.mark.parametrize("dim", [1, 37, 40])
    def test_single_node_trees(self, dim, tmp_path):
        maps = [simplified_term_counter(make_tree([label], [-1]), dim) for label in range(dim)]
        self.assert_matches_reference(maps, dim, tmp_path)

    @pytest.mark.parametrize("dim", [1, 37])
    def test_deep_chains_cross_byte_boundaries(self, dim, tmp_path):
        # Exponents of 256 and 65,536 and more need the second and third
        # byte of each packed label; a byte-order slip shows there.
        # The cache stores a chain of more than 255 nodes as uint16 and one
        # of more than 65,535 as uint32.
        last = dim - 1
        short = simplified_term_counter(chain([0] * 300 + [last] * 3), dim)
        long = simplified_term_counter(chain([last] * 65_600 + [0] * 3), dim)
        assert int(canonical_terms(long, dim)[0].max()) >= 65_536
        assert self.assert_matches_reference([short], dim, tmp_path, "short.bin") == np.uint16
        assert self.assert_matches_reference([short, long], dim, tmp_path, "long.bin") == np.uint32

    @pytest.mark.parametrize("rows", [[[0, 2, 0, 1, 0]], [[0, 2], [1, 0], [0, 0]]])
    def test_sort_keys_leave_their_matrix_unchanged(self, rows):
        # The transpose of a one-row matrix is contiguous, so a transposed
        # working copy must be asked for as a copy.
        mat = np.array(rows, dtype=np.uint8)
        keys = scoi.treepoly._sort_keys(mat)
        assert mat.tolist() == rows
        assert keys.dtype == np.dtype(">u8") and len(keys) == len(rows)

    def test_empty_polynomial_and_empty_term(self, tmp_path):
        maps = [Counter(), Counter(encode_term(t) for t in [{}, {1: 2}, {0: 1}])]
        self.assert_matches_reference(maps, 3, tmp_path)
        _, loaded = read_polynomial_cache(tmp_path / "poly.bin")
        assert loaded[0][1].n_distinct == loaded[0][1].n_terms == 0
        assert loaded[1][1].term_vectors()[0] == ((), 1)

    def test_gap_ranks_above_every_exponent(self):
        # {0: 2**32 - 1, 2: 1} sorts before {1: 1}: its first pair has the
        # smaller label, however large that pair's exponent.
        terms = Counter(encode_term(t) for t in [{1: 1}, {0: 2**32 - 1, 2: 1}, {0: 2**32 - 1}])
        mat, counts = canonical_terms(terms, 3)
        assert mat.dtype == np.uint32 and counts.dtype == np.int64
        assert [tuple(row) for row in mat.tolist()] == [
            (2**32 - 1, 0, 0), (2**32 - 1, 0, 1), (0, 1, 0)
        ]
        assert list(Polynomial(terms, 3).term_vectors()) == scalar_term_vectors(terms)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 3, 6, 40]).flatmap(
        lambda dim: st.tuples(st.just(dim), term_maps(dim))
    ))
    def test_rows_and_counts_match_the_sorted_decode(self, dim_map):
        dim, term_map = dim_map
        mat, counts = canonical_terms(term_map, dim)
        assert mat.dtype == np.uint32 and counts.dtype == np.int64
        assert (mat.tolist(), counts.tolist()) == oracle_rows(term_map, dim)

    def test_zero_gaps_and_single_term_records(self):
        maps = [
            {encode_term({2: 1}): 1},
            {encode_term({0: 1, 2: 1}): 2, encode_term({1: 1}): 1, encode_term({0: 1}): 3},
            {encode_term({3: 7}): 1},
        ]
        unpacked = [canonical_terms(term_map, 4) for term_map in maps]
        assert [mat.tolist() for mat, _ in unpacked] == [
            [[0, 0, 1, 0]], [[1, 0, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0]], [[0, 0, 0, 7]]
        ]
        assert [counts.tolist() for _, counts in unpacked] == [[1], [3, 2, 1], [1]]


class TestDependencyTree:
    def test_requires_single_root(self):
        with pytest.raises(MalformedTreeError):
            make_tree([0, 0], [-1, -1])
        with pytest.raises(MalformedTreeError):
            make_tree([0, 0], [1, 0])

    def test_rejects_cycle(self):
        # Node 1 and 2 point at each other; only node 0 hangs off the root.
        with pytest.raises(MalformedTreeError):
            make_tree([0, 0, 0], [-1, 2, 1])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(MalformedTreeError):
            make_tree([0, 0], [-1, 5])

    def test_children_lists(self):
        tree = make_tree([0, 1, 1], [-1, 0, 0])
        assert tree.children[0] == [1, 2]
        assert tree.root == 0


# --- whole-forest validation -----------------------------------------------------

FOREST_LABELS = 5
MUTATIONS = (
    "extra-root", "no-root", "parent-out-of-range", "two-cycle", "long-cycle",
    "label-outside-vocabulary", "offsets-moved",
)


def per_tree_first_bad(labels, parents, offsets, vocab_size):
    """The reference: each tree through DependencyTree and check_labels, in order."""
    for i in range(len(offsets) - 1):
        a, b = offsets[i], offsets[i + 1]
        try:
            check_labels(DependencyTree(labels[a:b], parents[a:b]), vocab_size)
        except (MalformedTreeError, UnknownLabelError) as exc:
            return i, str(exc)
    return None


@st.composite
def shuffled_tree(draw, max_nodes=10):
    """(labels, parents) of a random tree whose nodes are in random order."""
    n = draw(st.integers(1, max_nodes))
    parents = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    perm = draw(st.permutations(range(n)))
    shuffled = [0] * n
    for node, parent in enumerate(parents):
        shuffled[perm[node]] = -1 if parent == -1 else perm[parent]
    labels = draw(st.lists(st.integers(0, FOREST_LABELS - 1), min_size=n, max_size=n))
    return labels, shuffled


@st.composite
def mutated_forest(draw):
    """(labels, parents, offsets) of a forest with one tree broken one way."""
    trees = draw(st.lists(shuffled_tree(), min_size=1, max_size=6))
    mutation = draw(st.sampled_from(MUTATIONS))
    t = draw(st.integers(0, len(trees) - 1))
    labels, parents = trees[t]
    n = len(parents)
    root = parents.index(-1)
    others = [i for i in range(n) if i != root]
    if mutation == "extra-root":
        assume(others)
        parents[draw(st.sampled_from(others))] = -1
    elif mutation == "no-root":
        parents[root] = draw(st.integers(0, n - 1))
    elif mutation == "parent-out-of-range":
        node = draw(st.integers(0, n - 1))
        parents[node] = draw(st.one_of(st.integers(n, n + 5), st.integers(-8, -2)))
    elif mutation in ("two-cycle", "long-cycle"):
        size = 2 if mutation == "two-cycle" else draw(st.integers(3, 6))
        assume(len(others) >= size)
        cycle = draw(st.permutations(others))[:size]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            parents[a] = b
    elif mutation == "label-outside-vocabulary":
        labels[draw(st.integers(0, n - 1))] = draw(
            st.one_of(st.integers(FOREST_LABELS, FOREST_LABELS + 3), st.integers(-3, -1))
        )
    offsets = [0]
    for tree_labels, _ in trees:
        offsets.append(offsets[-1] + len(tree_labels))
    if mutation == "offsets-moved":
        assume(len(trees) >= 2)
        i = draw(st.integers(1, len(trees) - 1))
        moved = draw(st.integers(offsets[i - 1], offsets[i + 1]))
        assume(moved != offsets[i])
        offsets[i] = moved
    labels = [label for tree_labels, _ in trees for label in tree_labels]
    parents = [parent for _, tree_parents in trees for parent in tree_parents]
    return labels, parents, offsets


def _forest_arrays(labels, parents, offsets):
    return (np.array(labels, "<i4"), np.array(parents, "<i4"), np.array(offsets, np.int64))


class TestFirstBadTree:
    @settings(max_examples=400, deadline=None)
    @given(mutated_forest())
    def test_reports_the_first_tree_the_per_tree_path_rejects(self, forest):
        expected = per_tree_first_bad(*forest, FOREST_LABELS)
        assert first_bad_tree(*_forest_arrays(*forest), FOREST_LABELS) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(shuffled_tree(max_nodes=40), min_size=1, max_size=5))
    def test_valid_forest_passes(self, trees):
        offsets = [0]
        for labels, _ in trees:
            offsets.append(offsets[-1] + len(labels))
        labels = [label for tree_labels, _ in trees for label in tree_labels]
        parents = [parent for _, tree_parents in trees for parent in tree_parents]
        assert first_bad_tree(*_forest_arrays(labels, parents, offsets), FOREST_LABELS) is None

    @pytest.mark.parametrize("dtype, parent", [("<i4", 2**31 - 1), ("<i8", 2**32)])
    def test_parents_beyond_the_node_type(self, dtype, parent):
        # Tree 1 starts at node 1, so 1 + 2**31 - 1 wraps in int32; 2**32 cut
        # to int32 would read as node 0 of its tree.
        labels, parents, offsets = [0, 0, 0], [-1, -1, parent], [0, 1, 3]
        expected = per_tree_first_bad(labels, parents, offsets, FOREST_LABELS)
        assert expected is not None and expected[0] == 1
        arrays = (np.array(labels, "<i4"), np.array(parents, dtype), np.array(offsets, np.int64))
        assert first_bad_tree(*arrays, FOREST_LABELS) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 16, 17, 1500])
    def test_chain_with_its_root_last(self, n):
        # Node i hangs off node i + 1: every node is as far from the root as
        # the tree allows, so the ancestor squarings must all be needed.
        parents = list(range(1, n)) + [-1]
        arrays = _forest_arrays([0] * n, parents, [0, n])
        assert first_bad_tree(*arrays, 1) is None
        looped = _forest_arrays([0] * n, parents[:-1] + [0] if n > 1 else [0], [0, n])
        # A chain closed into a loop has no root; with a root spliced in, a cycle.
        assert first_bad_tree(*looped, 1) == (0, "expected exactly one root, found 0")
        if n > 2:
            cycle = [-1] + list(range(2, n)) + [1]
            assert first_bad_tree(*_forest_arrays([0] * n, cycle, [0, n]), 1) == (
                0, "parent relation contains a cycle"
            )


def per_tree_rows(labels, parents, offsets, dim):
    """The reference: ``simplified_term_counter`` and ``canonical_terms`` per
    tree, joined."""
    trees = [DependencyTree(labels[a:b], parents[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
    parts = [canonical_terms(simplified_term_counter(tree, dim), dim) for tree in trees]
    return (
        np.concatenate([mat for mat, _ in parts]),
        np.concatenate([counts for _, counts in parts]),
        np.cumsum([0] + [len(mat) for mat, _ in parts]),
    )


def assert_strictly_canonical(table: np.ndarray) -> None:
    """Each row of ``table`` sorts strictly after the row before it."""
    decoded = [tuple((label, exp) for label, exp in enumerate(row) if exp) for row in table.tolist()]
    assert all(a < b for a, b in zip(decoded, decoded[1:]))


class TestSimplifiedRows:
    """The columns builder against the per-tree path, row for row."""

    def assert_matches_per_tree(self, labels, parents, offsets, dim, cap):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoi.treepoly, "_BATCH_NODES", cap)
            table, terms, counts, bounds = simplified_rows(
                *_forest_arrays(labels, parents, offsets), dim
            )
        ref_rows, ref_counts, ref_bounds = per_tree_rows(labels, parents, offsets, dim)
        sizes = np.diff(offsets)
        dtype = np.dtype("u1" if sizes.max() <= 255 else "<u2" if sizes.max() <= 65_535 else "<u4")
        assert table.dtype == counts.dtype == dtype and table.shape[1] == dim
        assert terms.dtype == np.int32 and bounds.dtype == np.int64
        assert_strictly_canonical(table)
        assert np.array_equal(table[terms], ref_rows)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(bounds, ref_bounds)
        # Every table row is some tree's term.
        assert np.array_equal(np.unique(terms), np.arange(len(table)))
        return dtype

    @settings(max_examples=300, deadline=None)
    @given(st.lists(shuffled_tree(max_nodes=40), min_size=1, max_size=8),
           st.sampled_from([1, 5, 40, 4096]))
    def test_random_forests_match_the_per_tree_path(self, trees, cap):
        offsets = np.cumsum([0] + [len(labels) for labels, _ in trees]).tolist()
        labels = [label for tree_labels, _ in trees for label in tree_labels]
        parents = [parent for _, tree_parents in trees for parent in tree_parents]
        self.assert_matches_per_tree(labels, parents, offsets, FOREST_LABELS, cap)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.lists(tree_strategy(max_nodes=12, max_labels=5), min_size=1,
                                        max_size=12))
    def test_cache_bytes_do_not_depend_on_the_batch_cap(self, tmp_path_factory, cap, trees):
        # A cap of a few nodes makes batches of one tree, some of them larger
        # than the cap, as well as batches of several trees.
        tmp = tmp_path_factory.mktemp("cap")
        vocab = make_vocab(5)
        columns = _forest_arrays(
            [l for t in trees for l in t.labels], [p for t in trees for p in t.parents],
            np.cumsum([0] + [t.n for t in trees]),
        )
        ids = np.arange(len(trees))
        write_polynomial_cache(tmp / "default.bin", ids, *simplified_rows(*columns, 5), vocab)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoi.treepoly, "_BATCH_NODES", cap)
            write_polynomial_cache(tmp / "capped.bin", ids, *simplified_rows(*columns, 5), vocab)
        assert (tmp / "capped.bin").read_bytes() == (tmp / "default.bin").read_bytes()
        _, loaded = read_polynomial_cache(tmp / "capped.bin")
        for tree, (_, cached) in zip(trees, loaded):
            rows, counts = cached.rows()
            assert (rows.tolist(), counts.tolist()) == oracle_rows(
                simplified_term_counter(tree, 5), 5
            )

    @pytest.mark.parametrize("dim", [1, 37])
    def test_single_node_trees(self, dim):
        self.assert_matches_per_tree(list(range(dim)), [-1] * dim, list(range(dim + 1)), dim, 3)

    @pytest.mark.parametrize("n, dtype", [
        (255, "u1"), (256, "<u2"), (1_200, "<u2"), (10_000, "<u2"), (65_536, "<u4"),
    ])
    def test_chains_at_the_row_type_edges(self, n, dtype):
        # Node i hangs off node i + 1, so the root is last and every node is
        # as deep as the tree allows.  A small tree follows, and a cap below
        # the chain's size puts it in a batch of its own.
        labels = [i % 3 for i in range(n)] + [2, 0]
        parents = list(range(1, n)) + [-1] + [-1, 0]
        for cap in (100, 4096):
            assert self.assert_matches_per_tree(labels, parents, [0, n, n + 2], 3, cap) == dtype

    def test_no_trees(self):
        table, terms, counts, bounds = simplified_rows(*_forest_arrays([], [], [0]), 4)
        assert table.shape == (0, 4) and terms.tolist() == counts.tolist() == []
        assert bounds.tolist() == [0]

    @pytest.mark.parametrize("colliding_seeds", [1, 3])
    def test_a_hash_collision_changes_no_output(self, monkeypatch, colliding_seeds):
        # Under the first seeds every row hashes alike, so the word-for-word
        # check fails and the next seed runs; the ids are canonical ranks.
        rng = random.Random(4)
        trees = [random_recursive_tree(rng, rng.randint(1, 30), 5) for _ in range(20)]
        columns = _forest_arrays(
            [l for t in trees for l in t.labels], [p for t in trees for p in t.parents],
            np.cumsum([0] + [t.n for t in trees]),
        )
        expected = simplified_rows(*columns, 5)
        real = scoi.treepoly._row_hashes
        seeds = []

        def weak(words, seed):
            seeds.append(seed)
            return real(words, seed) * np.uint64(seed >= colliding_seeds)

        monkeypatch.setattr(scoi.treepoly, "_row_hashes", weak)
        got = simplified_rows(*columns, 5)
        assert sorted(set(seeds)) == list(range(colliding_seeds + 1))
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_collisions_under_every_seed_are_an_error(self, monkeypatch):
        monkeypatch.setattr(scoi.treepoly, "_row_hashes", lambda words, seed: words[:, 0] * 0)
        columns = _forest_arrays([0, 1], [-1, 0], [0, 2])
        with pytest.raises(RuntimeError, match="share a 64-bit hash under each of 4 seeds"):
            simplified_rows(*columns, 2)


class TestSimplifiedPolynomial:
    def test_single_node(self):
        vocab = make_vocab(3)
        poly = simplified_polynomial(make_tree([2], [-1]), vocab)
        assert decoded_counter(poly) == Counter({((2, 1),): 1})

    def test_root_with_one_child(self):
        # root labeled a=0 with one child labeled b=1: paths [a] and [a, b]
        vocab = make_vocab(2)
        poly = simplified_polynomial(make_tree([0, 1], [-1, 0]), vocab)
        assert decoded_counter(poly) == Counter({((0, 1),): 1, ((0, 1), (1, 1)): 1})

    def test_repeated_paths_get_multiplicity(self):
        # Two identical children under the root collapse to one term, count 2.
        vocab = make_vocab(2)
        poly = simplified_polynomial(make_tree([0, 1, 1], [-1, 0, 0]), vocab)
        assert decoded_counter(poly) == Counter({((0, 1),): 1, ((0, 1), (1, 1)): 2})
        assert poly.n_terms == 3

    @settings(max_examples=300)
    @given(tree_strategy(max_nodes=12, max_labels=4))
    def test_matches_path_oracle(self, tree):
        poly = simplified_polynomial(tree, make_vocab(4))
        assert decoded_counter(poly) == path_term_oracle(tree)

    @settings(max_examples=300)
    @given(tree_strategy(max_nodes=30, max_labels=5))
    def test_term_count_equals_node_count(self, tree):
        poly = simplified_polynomial(tree, make_vocab(5))
        assert poly.n_terms == tree.n

    @settings(max_examples=200)
    @given(tree_strategy(max_nodes=20, max_labels=4))
    def test_depth_consistency(self, tree):
        # Exponent sums enumerate path lengths; the max is the tree height.
        poly = simplified_polynomial(tree, make_vocab(4))
        depths = sorted(node_depths(tree))
        degrees = sorted(
            sum(e for _, e in pairs)
            for pairs, count in poly.term_vectors()
            for _ in range(count)
        )
        assert degrees == depths

    def test_deep_chain_has_no_recursion_limit(self):
        n = 12_000
        labels = [i % 7 for i in range(n)]
        parents = [-1] + list(range(n - 1))
        poly = simplified_polynomial(DependencyTree(labels, parents), make_vocab(7))
        assert poly.n_terms == n

    def test_unknown_label_rejected(self):
        with pytest.raises(UnknownLabelError):
            simplified_polynomial(make_tree([5], [-1]), make_vocab(2))


class TestOriginalPolynomial:
    def test_single_leaf(self):
        vocab = make_vocab(3)
        poly = original_polynomial(make_tree([1], [-1]), vocab)
        assert Counter(dict(poly.term_vectors())) == Counter({((1, 1),): 1})

    def test_root_with_two_leaves(self):
        # Root a=0 with leaf children b=1, c=2: y_a + x_b * x_c.
        vocab = make_vocab(3)
        poly = original_polynomial(make_tree([0, 1, 2], [-1, 0, 0]), vocab)
        expected = Counter({((3, 1),): 1, ((1, 1), (2, 1)): 1})
        assert Counter(dict(poly.term_vectors())) == expected

    def test_coefficients_from_identical_subtrees(self):
        # Two identical internal children produce a squared factor with a
        # cross-term coefficient of 2.
        vocab = make_vocab(2)
        tree = make_tree([0, 1, 0, 1, 0], [-1, 0, 1, 0, 3])
        poly = original_polynomial(tree, vocab)
        oracle = original_expansion_oracle(tree, 2)
        assert Counter(dict(poly.term_vectors())) == oracle

    @settings(max_examples=200)
    @given(tree_strategy(max_nodes=9, max_labels=3))
    def test_matches_expansion_oracle(self, tree):
        poly = original_polynomial(tree, make_vocab(3))
        assert Counter(dict(poly.term_vectors())) == original_expansion_oracle(tree, 3)

    def test_adversarial_family_small_case(self):
        from scoi.bench import family_tree

        tree, vocab = family_tree(q=2, t=2)
        assert tree.n == 11
        poly = original_polynomial(tree, vocab)
        assert Counter(dict(poly.term_vectors())) == original_expansion_oracle(tree, len(vocab))

    def test_budget_abort_names_node(self):
        from scoi.bench import family_tree

        tree, vocab = family_tree(q=2, t=8)
        with pytest.raises(TermExplosionError) as err:
            original_polynomial(tree, vocab, term_budget=50)
        assert 0 <= err.value.node < tree.n
        assert err.value.budget == 50

    def test_counts_multiplications(self):
        # Root with two leaf children: one term-pair multiplication.
        vocab = make_vocab(3)
        poly = original_polynomial(make_tree([0, 1, 2], [-1, 0, 0]), vocab)
        assert poly.multiplications == 1
        assert poly.additions == 2

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            original_polynomial(make_tree([0], [-1]), make_vocab(1), term_budget=0)

    def test_deep_chain_is_stack_safe(self):
        # Chains never multiply, so the exact expansion stays linear in both
        # terms and work; only stack discipline is at risk here.
        n = 10_000
        labels = [i % 5 for i in range(n)]
        parents = [-1] + list(range(n - 1))
        poly = original_polynomial(DependencyTree(labels, parents), make_vocab(5))
        assert poly.n_terms == n
        assert poly.multiplications == 0


class TestPolynomialDistance:
    def test_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            tree = random_recursive_tree(rng, rng.randint(1, 15), 4)
            poly = simplified_polynomial(tree, make_vocab(4))
            assert polynomial_distance(poly, poly) == 0.0

    def test_hand_case(self):
        p = poly_from_terms([{0: 1}], dim=2)
        q = poly_from_terms([{1: 1}], dim=2)
        assert polynomial_distance(p, q) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(11)
        for _ in range(50):
            ta = random_recursive_tree(rng, rng.randint(1, 10), 3)
            tb = random_recursive_tree(rng, rng.randint(1, 10), 3)
            pa = simplified_polynomial(ta, make_vocab(3))
            pb = simplified_polynomial(tb, make_vocab(3))
            assert polynomial_distance(pa, pb) == pytest.approx(
                polynomial_distance(pb, pa), abs=1e-12
            )

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(200):
            p = poly_from_terms(
                [
                    {rng.randrange(4): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}
                    for _ in range(rng.randint(1, 8))
                ],
                dim=4,
            )
            q = poly_from_terms(
                [
                    {rng.randrange(4): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}
                    for _ in range(rng.randint(1, 8))
                ],
                dim=4,
            )
            assert polynomial_distance(p, q) == pytest.approx(
                chamfer_distance_oracle(p, q), rel=1e-12
            )

    def test_empty_rejected(self):
        p = poly_from_terms([{0: 1}], dim=1)
        empty = poly_from_terms([], dim=1)
        with pytest.raises(ValueError):
            polynomial_distance(p, empty)
        with pytest.raises(ValueError):
            polynomial_distance(empty, p)


def _row_vectors(mat: np.ndarray) -> list[tuple[tuple[int, int], ...]]:
    """Each row of an exponent matrix as a sparse term vector."""
    return [tuple((int(l), int(e)) for l, e in enumerate(row) if e) for row in mat]


@st.composite
def exponent_matrices(draw, dtype):
    """Two exponent matrices of one dtype, widths possibly differing."""
    top = draw(st.sampled_from([1, 3, 40, 255, 1500 if dtype != np.uint8 else 255]))
    shapes = st.tuples(st.integers(0, 12), st.integers(0, 6))
    a = draw(hnp.arrays(dtype, shapes, elements=st.integers(0, top)))
    b = draw(hnp.arrays(dtype, shapes, elements=st.integers(0, top)))
    return a, b


class TestCityblock:
    """The level-matrix L1 kernel against scipy and the scalar ``manhattan``."""

    @staticmethod
    def check(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        got = cityblock(a, b)
        assert got.dtype == np.float64 and got.shape == (len(a), len(b))
        width = max(a.shape[1], b.shape[1])
        pad = lambda m: np.pad(m, ((0, 0), (0, width - m.shape[1])))  # noqa: E731
        if len(a) and len(b):
            expected = cdist(pad(a).astype(np.float64), pad(b).astype(np.float64), "cityblock")
            assert np.array_equal(got, expected)
        scalar = [[manhattan(s, t) for t in _row_vectors(b)] for s in _row_vectors(a)]
        assert np.array_equal(got, np.array(scalar, dtype=np.float64).reshape(got.shape))
        # The given row sums of b, and either side as the one with fewer rows.
        assert np.array_equal(cityblock(a, b, b.sum(axis=1, dtype=np.int64)), got)
        assert np.array_equal(cityblock(b, a), got.T)
        assert np.array_equal(cityblock(b, a, a.sum(axis=1, dtype=np.int64)), got.T)
        return got

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scipy_and_manhattan(self, dtype, data):
        self.check(*data.draw(exponent_matrices(dtype)))

    @pytest.mark.parametrize("block", [1, 20, 64])
    def test_b_rows_in_blocks(self, block, monkeypatch):
        # 1 gives one row of b per product, 20 and 64 a partial last block.
        monkeypatch.setattr(scoi.treepoly, "_LEVEL_BLOCK", block)
        rng = np.random.default_rng(block)
        for dtype in (np.uint8, np.uint16):
            a = rng.integers(0, 5, (7, 6)).astype(dtype)
            b = rng.integers(0, 5, (45, 4)).astype(dtype)
            self.check(a, b)

    def test_all_zero_columns(self):
        a = np.array([[0, 2, 0, 1], [0, 0, 0, 3]], dtype=np.uint8)
        b = np.array([[0, 1, 0, 0], [0, 0, 0, 0], [0, 5, 0, 1]], dtype=np.uint8)
        got = self.check(a, b)
        assert got.tolist() == [[2, 3, 3], [4, 3, 7]]

    def test_disjoint_label_sets(self):
        a = np.array([[3, 1, 0, 0], [1, 0, 0, 0]], dtype=np.uint16)
        b = np.array([[0, 0, 2, 4], [0, 0, 1, 0]], dtype=np.uint16)
        got = self.check(a, b)
        # No label in common: every distance is the sum of both rows.
        assert got.tolist() == [[10, 5], [7, 2]]

    def test_deep_chain_against_short_rows(self):
        rng = random.Random(5)
        chain_poly = simplified_polynomial(chain([rng.randrange(3) for _ in range(1500)]),
                                           make_vocab(4))
        chain_rows, _ = chain_poly.rows()
        assert chain_rows.max() > 400
        # Rows of at most 8 nodes.
        short = np.array([[rng.randint(0, 2) for _ in range(4)] for _ in range(30)],
                         dtype=np.uint8)
        self.check(chain_rows, short)
        self.check(short, chain_rows)

    def test_two_deep_chains(self):
        # Both sides' largest exponents are large: about 1,200 level columns.
        a = np.arange(1200, dtype=np.uint32).reshape(-1, 1)
        b = np.arange(0, 2400, 7, dtype=np.uint32).reshape(-1, 1)
        got = self.check(a, b)
        assert np.array_equal(got, np.abs(a.astype(np.int64) - b.T).astype(np.float64))

    def test_mixed_dtypes_and_widths(self):
        a = np.array([[1, 2, 3]], dtype=np.uint8)
        b = np.array([[300, 2], [0, 0]], dtype=np.uint16)
        assert self.check(a, b).tolist() == [[302, 6]]

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_exponents_near_the_row_type_maximum(self, dtype):
        """On uint32 rows the row sums pass 2**32, beyond the integers a
        float32 product holds exactly; the float64 distances stay exact."""
        top = np.iinfo(dtype).max
        rng = np.random.default_rng(23)
        few = rng.integers(0, 4, (3, 5)).astype(dtype)
        few[0] = 0
        many = rng.integers(top - 3, top, (9, 7), endpoint=True).astype(dtype)
        many[1] = 0
        many[2] = top
        if dtype == np.uint32:
            assert many.sum(axis=1, dtype=np.int64).max() > 2**32
        self.check(few, many)
        self.check(many, few)


def _with(arrays, position, value):
    arrays = list(arrays)
    arrays[position] = value
    return arrays


def _set(array, index, value):
    array = array.copy()
    array[index] = value
    return array


def _record_case(line, where):
    """A case that replaces record 7 by `line`, a record in the JSON notation
    [id, [[[[label, exponent], ...], multiplicity], ...]], stored the way a
    writer that checked nothing would: the table widened and typed to hold
    it, each of its terms an equal table row or a new one appended."""
    example_id, terms = json.loads(line)
    pairs = [pair for term, _ in terms for pair in term]

    def mutate(arrays):
        table, term_ids, counts, offsets, ids = arrays
        assert ids[-1] == example_id
        width = max(table.shape[1], 1 + max(label for label, _ in pairs))
        dtype = np.result_type(table.dtype, *(np.min_scalar_type(e) for _, e in pairs))
        rows = [np.pad(row, (0, width - table.shape[1])).astype(dtype) for row in table]
        record = []
        for term, _ in terms:
            row = np.zeros(width, dtype)
            for label, exponent in term:
                row[label] = exponent
            found = [i for i, kept in enumerate(rows) if np.array_equal(kept, row)]
            record.append(found[0] if found else len(rows))
            rows += [] if found else [row]
        return [
            np.array(rows),
            np.concatenate([term_ids[: offsets[-2]], record]).astype(np.int32),
            np.concatenate([counts[: offsets[-2]], [m for _, m in terms]]).astype(dtype),
            np.append(offsets[:-1], offsets[-2] + len(terms)),
            ids,
        ]

    return pytest.param(mutate, where, id=f"{line}-{where}")


# (edit of the five arrays [table, terms, counts, offsets, ids] of a cache
# holding record 3 with one term and record 7 with two, message after
# "<path>: ").  The table is [{0: 1}, {0: 1, 1: 1}], the terms [0, 0, 1].
CACHE_CORRUPTIONS = [
    _record_case(
        "[7,[[[[0,1]],1],[[[99,1]],1]]]", "term rows of shape (3, 100) for a 4-label vocabulary"
    ),
    pytest.param(
        lambda a: _with(a, 0, a[0][:, :3]),
        "term rows of shape (2, 3) for a 4-label vocabulary", id="rows-narrower-than-vocabulary",
    ),
    pytest.param(
        lambda a: _with(a, 0, a[0].astype(np.int16)),
        "term rows of dtype int16, not an unsigned integer of at most 32 bits",
        id="exponent-signed",
    ),
    _record_case(
        "[7,[[[[1,4294967296]],1]]]",
        "term rows of dtype uint64, not an unsigned integer of at most 32 bits",
    ),
    pytest.param(
        lambda a: _with(a, 0, a[0].astype(np.float64)),
        "term rows of dtype float64, not an unsigned integer of at most 32 bits",
        id="exponent-not-integer",
    ),
    pytest.param(
        lambda a: _with(a, 1, a[1].astype(np.int64)),
        "segment terms is not a one-dimensional <i4 array", id="terms-not-int32",
    ),
    _record_case("[7,[[[[1,1]],0]]]", "record 7: multiplicity 0 is not positive"),
    pytest.param(
        # A negative multiplicity needs a signed type, which is not the table's.
        lambda a: _with(a, 2, _set(a[2].astype(np.int64), 0, -2)),
        "int64 multiplicities of shape (3,) for 3 uint8 term rows", id="multiplicity-negative",
    ),
    pytest.param(
        lambda a: _with(a, 2, a[2].astype(np.float64)),
        "float64 multiplicities of shape (3,) for 3 uint8 term rows",
        id="multiplicity-not-integer",
    ),
    pytest.param(
        lambda a: _with(a, 2, a[2][:2]),
        "uint8 multiplicities of shape (2,) for 3 uint8 term rows", id="multiplicity-missing",
    ),
    pytest.param(
        lambda a: _with(a, 3, _set(a[3], 2, 4)),
        "record offsets do not match the 2 record ids and 3 term rows", id="offsets-past-rows",
    ),
    pytest.param(
        lambda a: _with(a, 3, np.array([0, 4, 3])),
        "record offsets do not match the 2 record ids and 3 term rows", id="offsets-decreasing",
    ),
    pytest.param(
        lambda a: _with(a, 4, a[4][:1]),
        "record offsets do not match the 1 record ids and 3 term rows", id="offsets-without-ids",
    ),
    pytest.param(
        lambda a: _with(a, 4, np.array([3, None], dtype=object)),
        "corrupt array segment (", id="pickled-segment",
    ),
    pytest.param(
        lambda a: _with(a, 1, _set(a[1], 2, 2)),
        "record 7: term id 2 outside the table of 2 term rows", id="term-past-the-table",
    ),
    pytest.param(
        lambda a: _with(a, 1, _set(a[1], 0, -1)),
        "record 3: term id -1 outside the table of 2 term rows", id="term-negative",
    ),
    pytest.param(
        lambda a: _with(a, 1, _set(a[1], 2, 0)),
        "record 7: term id 0 is not above the term id 0 before it", id="term-repeated",
    ),
    pytest.param(
        lambda a: _with(a, 1, np.array([1, 1, 0], np.int32)),
        "record 7: term id 0 is not above the term id 1 before it", id="terms-falling",
    ),
    pytest.param(
        lambda a: _with(a, 0, a[0][::-1]),
        "record 7: term row 1 is not above term row 0 in canonical order",
        id="table-not-canonical",
    ),
    pytest.param(
        lambda a: _with(a, 0, np.concatenate([a[0], a[0][1:]])),
        "term row 2 is not above term row 1 in canonical order", id="table-row-repeated-unused",
    ),
]


class TestEqualityAndUnion:
    """Polynomials compare and merge as term multisets, whatever their dim
    and whichever form they were built from."""

    def cached(self, poly, tmp_path):
        """``poly`` as read back from the polynomial cache: narrow rows."""
        write_poly_items(tmp_path / "poly.bin", [(0, poly)], make_vocab(poly.dim))
        [(_, cached)] = read_polynomial_cache(tmp_path / "poly.bin")[1]
        return cached

    def test_equal_term_multisets_are_equal_at_any_dim(self, tmp_path):
        tree = make_tree([0, 1, 1, 2, 1], [-1, 0, 0, 1, 1])
        built = simplified_polynomial(tree, make_vocab(3))
        cached = self.cached(built, tmp_path)
        wide = Polynomial(simplified_term_counter(tree, 3), 7)
        assert built.rows()[0].dtype == np.uint32 and cached.rows()[0].dtype == np.uint8
        for a, b in itertools.permutations([built, cached, wide], 2):
            assert a == b
        terms = simplified_term_counter(tree, 3)
        doubled = Counter({key: 2 * count for key, count in terms.items()})
        assert built != Polynomial(doubled, 3) and cached != Polynomial(doubled, 3)
        assert built != simplified_polynomial(make_tree([0, 1, 1, 2, 2], [-1, 0, 0, 1, 1]),
                                              make_vocab(3))
        assert built != built.rows()

    def test_union_takes_the_widest_dim_and_sums_counts(self, tmp_path):
        a = poly_from_terms([{0: 1}, {1: 1}], dim=2)
        b = self.cached(poly_from_terms([{1: 1}, {3: 2}, {3: 2}], dim=4), tmp_path)
        pool = Polynomial.union(iter([a, b]))
        assert pool.dim == 4
        assert pool.term_vectors() == ((((0, 1),), 1), (((1, 1),), 2), (((3, 2),), 2))
        assert pool == poly_from_terms([{0: 1}, {1: 1}, {1: 1}, {3: 2}, {3: 2}], dim=4)
        assert Polynomial.union([a, a]) == poly_from_terms([{0: 1}, {0: 1}, {1: 1}, {1: 1}], 2)

    def test_union_of_no_polynomials_is_empty(self):
        empty = Polynomial.union([])
        assert empty.n_terms == empty.n_distinct == 0
        assert empty == Polynomial(Counter(), 5)


class TestPolynomialCache:
    def test_round_trip_equals_recomputation(self, tmp_path):
        rng = random.Random(5)
        vocab = make_vocab(6)
        items = []
        for i in range(40):
            tree = random_recursive_tree(rng, rng.randint(1, 30), 6)
            items.append((i, simplified_polynomial(tree, vocab)))
        path = tmp_path / "poly.bin"
        write_poly_items(path, items, vocab)
        loaded_vocab, loaded = read_polynomial_cache(path)
        assert loaded_vocab.labels == vocab.labels
        assert loaded == items

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = random.Random(9)
        vocab = make_vocab(4)
        items = [
            (i, simplified_polynomial(random_recursive_tree(rng, rng.randint(1, 12), 4), vocab))
            for i in range(10)
        ]
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        write_poly_items(first, items, vocab)
        loaded_vocab, loaded = read_polynomial_cache(first)
        write_poly_items(second, loaded, loaded_vocab)
        assert first.read_bytes() == second.read_bytes()

    def write_two_records(self, path):
        items = [
            (3, poly_from_terms([{0: 1}], dim=4)),
            (7, poly_from_terms([{0: 1}, {0: 1, 1: 1}], dim=4)),
        ]
        write_poly_items(path, items, make_vocab(4))

    @pytest.mark.parametrize("mutate, where", CACHE_CORRUPTIONS)
    def test_bad_record_names_file_and_record(self, tmp_path, mutate, where):
        path = tmp_path / "corpus.poly.bin"
        self.write_two_records(path)
        header, arrays = read_segments(path)
        assert [a.shape for a in arrays] == [(2, 4), (3,), (3,), (3,), (2,)]
        write_segments(path, header, mutate(arrays))
        with pytest.raises(DataError) as err:
            read_polynomial_cache(path)
        assert str(err.value).startswith(f"{path}: {where}")

    @pytest.mark.parametrize(
        "cut",
        [lambda data, header: data[: len(header) + 130], lambda data, header: data[:-1]],
        ids=["rows-cut", "ids-cut"],
    )
    def test_truncated_file_is_a_corrupt_array_segment(self, tmp_path, cut):
        path = tmp_path / "corpus.poly.bin"
        self.write_two_records(path)
        header, _ = read_segments(path)
        path.write_bytes(cut(path.read_bytes(), header))
        with pytest.raises(DataError) as err:
            read_polynomial_cache(path)
        assert str(err.value).startswith(f"{path}: corrupt array segment (")

    def test_writer_rejects_an_exponent_above_the_term_count(self, tmp_path):
        # Records of one term each, so uint8 rows; the exponent of 300 in
        # table row 1 does not fit them, and record 5 is the first to use it.
        table = np.array([[1], [300]], np.uint32)
        with pytest.raises(ValueError, match="record 5: exponent above its term count"):
            write_polynomial_cache(
                tmp_path / "p.bin", np.array([2, 3, 5]), table, np.array([0, 0, 1]),
                np.array([1, 1, 1]), np.array([0, 1, 2, 3]), make_vocab(1),
            )
        with pytest.raises(ValueError, match="term row 1: exponent above its term count"):
            write_polynomial_cache(
                tmp_path / "p.bin", np.array([2]), table, np.array([0]), np.array([1]),
                np.array([0, 1]), make_vocab(1),
            )
        assert list(tmp_path.iterdir()) == []

    def test_writer_peak_memory_is_below_the_counts_column(self, tmp_path):
        # Taking each record's term total from a cumulative sum of every
        # term's count held two int64 copies of ``counts``.  The counts are
        # passed as int64 here, as wide as any caller's.
        rng = random.Random(11)
        trees = [random_recursive_tree(rng, 30, 12) for _ in range(2000)]
        columns = _forest_arrays(
            [l for t in trees for l in t.labels], [p for t in trees for p in t.parents],
            np.cumsum([0] + [t.n for t in trees]),
        )
        table, terms, counts, offsets = simplified_rows(*columns, 12)
        counts = counts.astype(np.int64)
        assert counts.nbytes > 400_000
        tracemalloc.start()
        try:
            write_polynomial_cache(
                tmp_path / "p.bin", np.arange(len(trees)), table, terms, counts, offsets,
                make_vocab(12),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < counts.nbytes

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_text('{"format":"something-else","version":2,"labels":[]}\n')
        from scoi.errors import DataError

        with pytest.raises(DataError):
            read_polynomial_cache(path)

    @pytest.mark.parametrize("header", ["not json", "[1]", ""])
    def test_rejects_header_that_is_not_an_object(self, tmp_path, header):
        path = tmp_path / "bogus.bin"
        path.write_text(header + "\n")
        with pytest.raises(DataError, match="not a polynomial cache"):
            read_polynomial_cache(path)


class TestCacheFile:
    """``write_cache`` writes each segment as ``np.save`` does, and
    ``read_cache`` reads them back."""

    def segments(self) -> list[np.ndarray]:
        rng = np.random.default_rng(8)
        rows = [rng.integers(0, np.iinfo(t).max, (9, 5), endpoint=True).astype(t)
                for t in ("u1", "<u2", "<u4")]
        flat = [rng.integers(-1000, 1000, 11).astype(t) for t in ("<i4", "<i8")]
        flat += [rng.random(6), rng.integers(0, 255, 13).astype("u1")]
        empty = [np.zeros((0, 5), "<u2"), *(np.zeros(0, t) for t in ("<i4", "<i8", "<f8", "u1"))]
        return rows + flat + empty

    def test_segments_are_the_bytes_np_save_writes(self, tmp_path):
        saved = self.segments()
        path = tmp_path / "cache.bin"
        write_cache(path, {"format": "test", "version": 1, "names": ["é"]}, saved)
        expected = io.BytesIO()
        expected.write('{"format":"test","version":1,"names":["é"]}\n'.encode("utf-8"))
        for array in saved:
            np.save(expected, array)
        assert path.read_bytes() == expected.getvalue()
        names = [f"segment{i}" for i in range(len(saved))]
        header, read = read_cache(path, "test", 1, "test cache", ("names",), names)
        assert header["names"] == ["é"]
        for array, got in zip(saved, read.values()):
            assert got.dtype == array.dtype and np.array_equal(got, array)
