import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from scoi.coverage import (
    TokenBag,
    max_similarities,
    occurrence_sum,
    syn_set_cov,
    term_similarity,
    word_set_cov,
)
import scoi.selection
from scoi.retrieval import Bm25Params, build_index, word_matrix
from scoi.corpus import corpus_columns, read_corpus_columns, write_corpus_cache
from scoi.selection import STRATEGIES, Candidates, PoolScores, SelectionPlan, run_strategy
from scoi.treepoly import (
    DependencyTree,
    Polynomial,
    encode_term,
    polynomial_distance,
    read_polynomial_cache,
    read_polynomial_columns,
)
from scipy.spatial.distance import cdist

from conftest import (
    make_record,
    make_vocab,
    manhattan_oracle,
    poly_from_terms,
    random_pool,
    random_record,
    random_recursive_tree,
    write_poly_items,
)


# --- independent naive oracles ------------------------------------------------


def sim_oracle(s: dict, t: dict, measure: str) -> float:
    if measure == "normalized-manhattan":
        return 1.0 / (1.0 + manhattan_oracle(s, t))
    dot = sum(e * t.get(label, 0) for label, e in s.items())
    ns = sum(e * e for e in s.values()) ** 0.5
    nt = sum(e * e for e in t.values()) ** 0.5
    return dot / (ns * nt)


def syn_cov_oracle(x_terms: list[dict], pool_terms: list[dict], measure: str) -> float:
    total = 0.0
    for s in x_terms:
        total += max(sim_oracle(s, t, measure) for t in pool_terms)
    return total / len(x_terms)


def word_cov_oracle(x_counts: dict, pool_counts: dict) -> float:
    covered = sum(min(c, pool_counts.get(tok, 0)) for tok, c in x_counts.items())
    return covered / sum(x_counts.values())


def random_term(rng: random.Random, dim: int) -> dict:
    return {rng.randrange(dim): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}


def pool_of(term_maps: list[dict], dim: int) -> Polynomial:
    counter = Counter()
    for mapping in term_maps:
        counter[encode_term(mapping)] += 1
    return Polynomial(counter, dim)


# --- term similarity -----------------------------------------------------------


class TestTermSimilarity:
    def test_identical_vectors(self):
        v = ((0, 1), (1, 2))
        assert term_similarity(v, v) == 1.0

    def test_disjoint_singletons(self):
        assert term_similarity(((0, 1),), ((1, 1),)) == pytest.approx(1 / 3, abs=1e-12)

    def test_parallel_vectors(self):
        s, t = ((0, 1),), ((0, 2),)
        assert term_similarity(s, t, "cosine") == 1.0
        assert term_similarity(s, t, "normalized-manhattan") == pytest.approx(0.5, abs=1e-12)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            term_similarity((), ((0, 1),))
        with pytest.raises(ValueError):
            term_similarity(((0, 1),), (), "cosine")

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            term_similarity(((0, 1),), ((0, 1),), "euclidean")

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(0)
        for _ in range(500):
            s = random_term(rng, 5)
            t = random_term(rng, 5)
            sv = tuple(sorted(s.items()))
            tv = tuple(sorted(t.items()))
            for measure in ("normalized-manhattan", "cosine"):
                assert term_similarity(sv, tv, measure) == pytest.approx(
                    sim_oracle(s, t, measure), rel=1e-12
                )


# --- per-occurrence sums --------------------------------------------------------


def occurrence_sum_reference(values: list[float], counts: list[int]) -> float:
    """The pinned order: one Python float addition per occurrence, term by term."""
    total = 0.0
    for value, count in zip(values, counts):
        for _ in range(count):
            total += value
    return total


class TestOccurrenceSum:
    def test_each_row_equals_the_scalar_sum_exactly(self):
        rng = np.random.default_rng(11)
        counts = [1, 3, 1, 2, 3, 1, 2, 4, 1, 3]
        values = rng.random((40, len(counts)))
        # Mathematically tied rows: swap values between columns of equal count,
        # which changes the addition order but not the exact sum.
        ties = values[:20].copy()
        ties[:, [0, 2]] = ties[:, [2, 0]]
        ties[:, [1, 4]] = ties[:, [4, 1]]
        values = np.vstack([values, ties])
        # Dense counts are floats; rows are summed in the given column order.
        got = occurrence_sum(values, np.array(counts, dtype=np.float64))
        assert got.shape == (values.shape[0],)
        for row, total in zip(values.tolist(), got.tolist()):
            assert total == occurrence_sum_reference(row, counts)

    def test_addition_order_is_the_column_order(self):
        # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 are equal in exact arithmetic only.
        values = np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
        got = occurrence_sum(values, np.ones(3)).tolist()
        assert got == [occurrence_sum_reference(row, [1, 1, 1]) for row in values.tolist()]
        assert got[0] != got[1]

    def test_one_dimensional_input_gives_a_float(self):
        values = np.array([0.25, 0.5, 0.125])
        total = occurrence_sum(values, np.array([2.0, 1.0, 3.0]))
        assert type(total) is float
        assert total == occurrence_sum_reference(values.tolist(), [2, 1, 3])

    def test_large_and_small_values_are_added_per_occurrence(self):
        # 1e16 + 1.0 rounds back to 1e16, but 1.0 + 1.0 + 1e16 does not: any
        # other grouping or order of the additions changes some sum.
        rng = np.random.default_rng(17)
        counts = [2, 1, 3, 1, 4, 2]
        values = rng.choice([1e16, 1.0, 0.5, 3.0], (40, len(counts)))
        expected = [occurrence_sum_reference(row, counts) for row in values.tolist()]
        reversed_order = [
            occurrence_sum_reference(row[::-1], counts[::-1]) for row in values.tolist()
        ]
        assert expected != reversed_order
        for dtype in (np.int64, np.float64):
            assert occurrence_sum(values, np.array(counts, dtype)).tolist() == expected
            assert [occurrence_sum(row, np.array(counts, dtype)) for row in values] == expected


# --- syntactic set coverage ----------------------------------------------------


class TestSynSetCov:
    def test_self_cover_is_one(self):
        x = poly_from_terms([{0: 1}, {0: 1, 1: 1}, {0: 1, 1: 1}], dim=3)
        pool = pool_of([{0: 1}, {0: 1, 1: 1}, {2: 2}], dim=3)
        assert syn_set_cov(x, pool) == 1.0

    def test_hand_case(self):
        # x = {{a}, {a, b}}, pool = {{a}}: best sims 1 and 1/2, mean 0.75.
        x = poly_from_terms([{0: 1}, {0: 1, 1: 1}], dim=2)
        pool = pool_of([{0: 1}], dim=2)
        assert syn_set_cov(x, pool) == pytest.approx(0.75, abs=1e-12)

    def test_multiplicity_respected(self):
        # A term occurring twice contributes twice to the mean.
        x = poly_from_terms([{0: 1}, {1: 1}, {1: 1}], dim=2)
        pool = pool_of([{0: 1}], dim=2)
        # sims: 1, 1/3, 1/3 -> mean 5/9
        assert syn_set_cov(x, pool) == pytest.approx(5 / 9, rel=1e-12)

    def test_empty_pool_rejected(self):
        x = poly_from_terms([{0: 1}], dim=1)
        with pytest.raises(ValueError):
            syn_set_cov(x, pool_of([], dim=1))

    def test_matches_double_loop_oracle(self):
        rng = random.Random(42)
        for _ in range(400):
            x_terms = [random_term(rng, 5) for _ in range(rng.randint(1, 10))]
            pool_terms = [random_term(rng, 5) for _ in range(rng.randint(1, 30))]
            x = poly_from_terms(x_terms, dim=5)
            pool = pool_of(pool_terms, dim=5)
            for measure in ("normalized-manhattan", "cosine"):
                assert syn_set_cov(x, pool, measure) == pytest.approx(
                    syn_cov_oracle(x_terms, pool_terms, measure), rel=1e-12
                )

    def test_monotone_under_pool_growth(self):
        rng = random.Random(17)
        for _ in range(200):
            x_terms = [random_term(rng, 4) for _ in range(rng.randint(1, 6))]
            base = [random_term(rng, 4) for _ in range(rng.randint(1, 10))]
            extra = base + [random_term(rng, 4)]
            x = poly_from_terms(x_terms, dim=4)
            for measure in ("normalized-manhattan", "cosine"):
                assert syn_set_cov(x, pool_of(extra, 4), measure) >= syn_set_cov(
                    x, pool_of(base, 4), measure
                )

    def test_bounds_normalized_manhattan(self):
        rng = random.Random(23)
        for _ in range(200):
            x = poly_from_terms([random_term(rng, 4) for _ in range(rng.randint(1, 6))], dim=4)
            pool = pool_of([random_term(rng, 4) for _ in range(rng.randint(1, 8))], dim=4)
            cov = syn_set_cov(x, pool)
            assert 0.0 < cov <= 1.0


# --- lexical set coverage --------------------------------------------------------


class TestWordSetCov:
    def test_full_cover(self):
        x = TokenBag.from_tokens(["the", "cat", "the"])
        pool = TokenBag.from_tokens(["the", "the", "cat", "dog"])
        assert word_set_cov(x, pool) == 1.0

    def test_hand_case(self):
        x = TokenBag(Counter({"the": 2, "cat": 1}))
        pool = TokenBag(Counter({"the": 1, "dog": 4}))
        assert word_set_cov(x, pool) == pytest.approx(1 / 3, abs=1e-12)

    def test_disjoint(self):
        x = TokenBag.from_tokens(["a", "b"])
        pool = TokenBag.from_tokens(["c"])
        assert word_set_cov(x, pool) == 0.0

    def test_empty_x_rejected(self):
        with pytest.raises(ValueError):
            word_set_cov(TokenBag(Counter()), TokenBag.from_tokens(["a"]))

    @settings(max_examples=300)
    @given(
        st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 4), min_size=1),
        st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 4)),
        st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 4)),
    )
    def test_oracle_and_monotonicity(self, x_counts, pool_counts, extra):
        x = TokenBag(Counter(x_counts))
        pool = TokenBag(Counter(pool_counts))
        assert word_set_cov(x, pool) == pytest.approx(
            word_cov_oracle(x_counts, pool_counts), rel=1e-12
        )
        bigger = Counter(pool_counts)
        bigger.update(extra)
        assert word_set_cov(x, TokenBag(bigger)) >= word_set_cov(x, pool)
        assert 0.0 <= word_set_cov(x, pool) <= 1.0

    def test_self_cover(self):
        x = TokenBag.from_tokens(["a", "a", "b"])
        pool = TokenBag.union([x, TokenBag.from_tokens(["z"])])
        assert word_set_cov(x, pool) == 1.0


class TestTermPool:
    def test_union_is_multiset_sum(self):
        a = poly_from_terms([{0: 1}, {1: 1}], dim=2)
        b = poly_from_terms([{1: 1}], dim=2)
        pool = Polynomial.union([a, b])
        assert pool.n_terms == 3
        assert dict(pool.term_vectors())[((1, 1),)] == 2


# --- batched pool scores ---------------------------------------------------------


def scipy_max_similarities(x: Polynomial, other: Polynomial, measure: str) -> np.ndarray:
    """The per-candidate similarity row as scipy's cdist gives it."""
    x_mat, _ = x.dense()
    other_mat, _ = other.dense()
    if measure == "normalized-manhattan":
        return (1.0 / (1.0 + cdist(x_mat, other_mat, "cityblock"))).max(axis=1)
    return np.clip(1.0 - cdist(x_mat, other_mat, "cosine"), 0.0, 1.0).max(axis=1)


def scipy_polynomial_distance(p: Polynomial, q: Polynomial) -> float:
    """The chamfer distance on scipy's cityblock distances."""
    mat_p, counts_p = p.dense()
    mat_q, counts_q = q.dense()
    dists = cdist(mat_p, mat_q, "cityblock")
    total = float(counts_p @ dists.min(axis=1)) + float(counts_q @ dists.min(axis=0))
    return total / (p.n_terms + q.n_terms)


def cached_polys(records, vocab, tmp_path):
    """The records' polynomials as the polynomial cache stores them (narrow rows)."""
    path = tmp_path / "pool.poly.bin"
    write_poly_items(path, ((r.id, r.poly) for r in records), vocab)
    return dict(read_polynomial_cache(path)[1])


WORDS = [f"w{i}" for i in range(30)]


# The per-candidate token tables PoolScores and select_dpp built before
# both read the BM25 postings; kept as references.


def per_candidate_token_counts(test, by_id) -> np.ndarray:
    tokens = list(test.tokens.counts)
    rows = [[r.tokens.counts.get(t, 0) for t in tokens] for r in by_id]
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(tokens))


def per_candidate_word_matrix(candidates, query, index, params=Bm25Params()) -> np.ndarray:
    terms = tuple(query.counts)
    idfs = np.array([index.idf(t) for t in terms], dtype=np.float64)
    k1, b = params.k1, params.b
    mat = np.zeros((len(candidates), len(terms)), dtype=np.float64)
    for i, cand in enumerate(candidates):
        denom_norm = k1 * (1.0 - b + b * (cand.tokens.total / index.avgdl))
        counts = cand.tokens.counts
        for j, term in enumerate(terms):
            tf = counts.get(term, 0)
            if tf:
                mat[i, j] = idfs[j] * (tf * (k1 + 1.0)) / (tf + denom_norm)
    return mat


def per_candidate_scores(test, pool, measure) -> PoolScores:
    """Record-built PoolScores whose token table is the per-candidate one."""
    scores = PoolScores.from_records(test, pool, measure)
    scores.token_counts = per_candidate_token_counts(test, sorted(pool, key=lambda r: r.id))
    return scores


def column_scores(test, corpus, pool, measure, tmp_path) -> PoolScores:
    """PoolScores over the caches' columns of ``corpus``, as ``select`` builds
    them: the pool is its rows, in the pool's order."""
    ordered = sorted(corpus, key=lambda r: r.id)
    vocab = make_vocab(max(r.poly.dim for r in ordered))
    write_corpus_cache(tmp_path / "corpus.bin", corpus_columns(ordered, vocab))
    write_poly_items(tmp_path / "corpus.poly.bin", ((r.id, r.poly) for r in ordered), vocab)
    columns = read_corpus_columns(tmp_path / "corpus.bin")
    _, terms = read_polynomial_columns(tmp_path / "corpus.poly.bin")
    candidates = Candidates.from_columns(terms, columns.tokens)
    return PoolScores(test, candidates, columns.ids.searchsorted([r.id for r in pool]), measure)


class TestPoolScores:
    """One kernel call per (test, pool) gives the per-candidate scores bit for bit."""

    @pytest.mark.parametrize("measure", ["normalized-manhattan", "cosine"])
    @pytest.mark.parametrize("cached", [False, True], ids=["key-built", "cached"])
    def test_batched_tables_equal_per_candidate_calls(self, measure, cached, tmp_path):
        rng = random.Random(23)
        vocab = make_vocab(6)
        for trial in range(20):
            # Up to 80 nodes, so the dot products run past BLAS's unrolled blocks.
            nodes = 8 if trial % 2 else 80
            pool = [
                make_record(rid, random_recursive_tree(rng, rng.randint(1, nodes), 6), ["w"], vocab)
                for rid in rng.sample(range(1000), rng.randint(1, 30))
            ]
            test = make_record(1000, random_recursive_tree(rng, rng.randint(1, nodes), 6), ["w"],
                               vocab)
            if cached:
                polys = cached_polys([test, *pool], vocab, tmp_path)
                for record in (test, *pool):
                    record.poly = polys[record.id]
            scores = PoolScores.from_records(test, pool, measure)
            by_id = sorted(pool, key=lambda r: r.id)
            assert scores.ids == [r.id for r in by_id]
            sims = np.array([max_similarities(test.poly, r.poly, measure) for r in by_id])
            dists = np.array([polynomial_distance(test.poly, r.poly) for r in by_id])
            assert np.array_equal(scores.similarities, sims)
            assert np.array_equal(scores.distances, dists)
            assert np.array_equal(
                sims, [scipy_max_similarities(test.poly, r.poly, measure) for r in by_id]
            )
            assert np.array_equal(
                dists, [scipy_polynomial_distance(test.poly, r.poly) for r in by_id]
            )

    @staticmethod
    def assert_tables_peak_below_twice_the_distance_table(test, pool):
        scores = PoolScores.from_records(test, pool, "normalized-manhattan")
        test.poly.rows()
        scores._pool_terms  # the inputs, not the tables, are outside the bound
        tracemalloc.start()
        try:
            scores.similarities
            scores.distances
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table_bytes = test.poly.n_distinct * len(scores._pool_terms[0]) * 8
        assert table_bytes >= 4 << 20
        assert peak <= 2 * table_bytes
        return scores

    def test_manhattan_tables_peak_below_twice_the_distance_table(self):
        """``select`` runs in one process, so one (test, pool)'s transient
        memory is its peak: the similarity and distance tables may hold the
        L1 table and little more, however large it is."""
        rng = random.Random(31)
        vocab = make_vocab(12)
        test = make_record(5000, random_recursive_tree(rng, 900, 12), ["w"], vocab)
        pool = [
            make_record(rid, random_recursive_tree(rng, 110, 12), ["w"], vocab)
            for rid in range(8)
        ]
        self.assert_tables_peak_below_twice_the_distance_table(test, pool)

    def test_deep_test_input_tables_peak_below_twice_the_distance_table(self):
        """Test inputs are not length-filtered.  A 1,500-node chain has 1,500
        distinct terms, fewer than a pool of short records, and exponents up
        to 1,499: the kernel's level columns must stay bounded by the pool's
        short paths, not by the chain's depth."""
        rng = random.Random(37)
        vocab = make_vocab(12)
        n = 1_500
        chain = DependencyTree([0] + [1] * (n - 1), list(range(-1, n - 1)))
        test = make_record(5000, chain, ["w"], vocab)
        pool = [
            make_record(rid, random_recursive_tree(rng, 24, 12), ["w"], vocab)
            for rid in range(100)
        ]
        scores = self.assert_tables_peak_below_twice_the_distance_table(test, pool)
        assert test.poly.n_distinct == n < len(scores._pool_terms[0])

    @pytest.mark.parametrize("measure", ["normalized-manhattan", "cosine"])
    @pytest.mark.parametrize("indexed", [False, True], ids=["pool-index", "corpus-index"])
    def test_token_tables_equal_per_candidate_formulas(
        self, measure, indexed, monkeypatch, tmp_path
    ):
        rng = random.Random(29)
        vocab = make_vocab(4)
        for _ in range(15):
            corpus = random_pool(rng, 40, vocab, WORDS[:12])
            pool = rng.sample(corpus, rng.randint(1, 20))
            test = random_record(rng, 5000, vocab, WORDS[:15])
            index = build_index(corpus)
            if indexed:
                scores = column_scores(test, corpus, pool, measure, tmp_path)
            else:
                scores = PoolScores.from_records(test, pool, measure)
            by_id = sorted(pool, key=lambda r: r.id)
            table = per_candidate_token_counts(test, by_id)
            assert scores.token_counts.dtype == np.int64
            assert np.array_equal(scores.token_counts, table)
            rows = index.rows(scores.ids)
            wm = word_matrix(rows, scores.token_counts, test.tokens, index)
            assert np.array_equal(wm, per_candidate_word_matrix(by_id, test.tokens, index))

            # Every strategy selects as it did on the per-candidate tables.
            corpus_ids = [r.id for r in corpus]
            new = {}
            for strategy in STRATEGIES:
                plan = SelectionPlan(strategy=strategy, k=3, measure=measure, pool_size=3)
                new[strategy] = run_strategy(
                    test, pool, plan, index=index, corpus_ids=corpus_ids, scores=scores
                ).to_record()
            with monkeypatch.context() as patch:
                by_id = {r.id: r for r in pool}
                patch.setattr(
                    scoi.selection, "word_matrix",
                    lambda rows, counts, query, index, params: per_candidate_word_matrix(
                        [by_id[i] for i in index.ids[rows].tolist()], query, index, params
                    ),
                )
                old_scores = per_candidate_scores(test, pool, measure)
                for strategy in STRATEGIES:
                    plan = SelectionPlan(strategy=strategy, k=3, measure=measure, pool_size=3)
                    old = run_strategy(
                        test, pool, plan, index=index, corpus_ids=corpus_ids, scores=old_scores
                    )
                    assert old.to_record() == new[strategy], strategy

    @pytest.mark.parametrize("measure", ["normalized-manhattan", "cosine"])
    def test_column_built_tables_equal_record_built(self, measure, tmp_path):
        """``select``'s tables, gathered from the cache columns by row, equal
        the tables of the same pool packed from its records, bit for bit, and
        every strategy selects the same from either."""
        rng = random.Random(37)
        vocab = make_vocab(5)
        for trial in range(12):
            corpus = random_pool(rng, 60, vocab, WORDS[:14])
            pool = rng.sample(corpus, rng.randint(1, 25))
            test = random_record(rng, 5000, vocab, WORDS[:16])
            columns = column_scores(test, corpus, pool, measure, tmp_path)
            records = PoolScores.from_records(test, pool, measure)
            assert (columns.ids, columns.ranked) == (records.ids, records.ranked)
            assert columns.ranked == [r.id for r in pool]
            for table in ("similarities", "distances", "token_counts"):
                got, want = getattr(columns, table), getattr(records, table)
                assert got.dtype == want.dtype and got.shape == want.shape, table
                assert got.tobytes() == want.tobytes(), table
            index = build_index(corpus)
            corpus_ids = [r.id for r in corpus]
            for strategy in STRATEGIES:
                plan = SelectionPlan(strategy=strategy, k=rng.randint(1, 6), measure=measure)
                plan.pool_size = max(plan.k, len(pool))
                got = run_strategy(test, columns.ranked, plan, index=index,
                                   corpus_ids=corpus_ids, scores=columns)
                want = run_strategy(test, pool, plan, index=index, corpus_ids=corpus_ids)
                assert got.to_record() == want.to_record(), (trial, strategy)

    def test_empty_member_polynomial_rejected(self):
        rng = random.Random(4)
        vocab = make_vocab(3)
        pool = random_pool(rng, 5, vocab, WORDS)
        test = random_record(rng, 2000, vocab, WORDS)
        pool[2].poly = Polynomial(Counter(), len(vocab))
        for table in ("similarities", "distances"):
            scores = PoolScores.from_records(test, pool, "normalized-manhattan")
            with pytest.raises(ValueError, match="cannot score against an empty term pool"):
                getattr(scores, table)
