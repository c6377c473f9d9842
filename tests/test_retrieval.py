import math
import random
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from scoi.corpus import ExampleRecord, corpus_columns, read_corpus_cache, write_corpus_cache
from scoi.coverage import TokenBag
from scoi.errors import DataError
from scoi.retrieval import (
    _DENSE_DIVISOR,
    Bm25Params,
    InvertedIndex,
    bm25_topk,
    build_index,
    index_from_tokens,
    intern_tokens,
    load_index,
    save_index,
    token_table,
    word_matrix,
)
from scoi.treepoly import DependencyTree, LabelVocabulary


def rec(i: int, tokens: list[str]) -> ExampleRecord:
    return ExampleRecord(i, " ".join(tokens), "", tuple(tokens), TokenBag.from_tokens(tokens))


def bag(tokens: list[str]) -> TokenBag:
    return TokenBag.from_tokens(tokens)


class TestBuildIndex:
    def test_shared_token_posting_length(self):
        index = build_index([rec(0, ["x", "a"]), rec(1, ["x"]), rec(2, ["x", "b"])])
        assert index.names == ["x", "a", "b"]
        assert index.bounds.tolist() == [0, 3, 4, 5]
        assert index.doc_rows.tolist() == [0, 1, 2, 0, 2]
        assert index.tfs.tolist() == [1, 1, 1, 1, 1]
        rows, tfs = index.posting(index.name_ids["x"])
        assert rows.tolist() == [0, 1, 2]
        assert tfs.tolist() == [1, 1, 1]

    def test_average_length(self):
        index = build_index([rec(0, ["a", "b"]), rec(1, ["a"])])
        assert index.avgdl == pytest.approx(1.5)

    def test_idf_orders_by_rarity(self):
        docs = [rec(i, ["common", f"tok{i}"]) for i in range(200)]
        index = build_index(docs)
        assert index.idf("common") < index.idf("tok0")
        assert index.idf("tok0") == index.idf("tok123")

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_index([])


def oracle_build_index(corpus) -> InvertedIndex:
    """Reference index: each id-sorted record's token bag, one posting entry at a time."""
    records = sorted(corpus, key=lambda r: r.id)
    ids = np.array([r.id for r in records], dtype=np.int64)
    lengths = np.array([r.tokens.total for r in records], dtype=np.int64)
    raw: dict[str, tuple[list[int], list[int]]] = {}
    for row, record in enumerate(records):
        for token, count in record.tokens.counts.items():
            entry = raw.setdefault(token, ([], []))
            entry[0].append(row)
            entry[1].append(count)
    names = list(raw)
    bounds = np.cumsum([0] + [len(raw[t][0]) for t in names], dtype=np.int64)
    rows = np.array([r for t in names for r in raw[t][0]], dtype=np.int64)
    tfs = np.array([c for t in names for c in raw[t][1]], dtype=np.float64)
    return InvertedIndex(ids, lengths, names, bounds, rows, tfs)


@st.composite
def corpora(draw):
    """Records with distinct, shuffled ids and tokens drawn with repeats from a small set."""
    words = draw(st.lists(st.text("abcé.,", min_size=1, max_size=3), min_size=1, max_size=8,
                          unique=True))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=30, unique=True))
    return [
        rec(i, draw(st.lists(st.sampled_from(words), min_size=1, max_size=12))) for i in ids
    ]


class TestIndexEquivalence:
    """Every way to build an index writes the oracle's bytes."""

    @settings(max_examples=60, deadline=None)
    @given(corpora())
    def test_every_path_saves_the_oracle_bytes(self, tmp_path_factory, corpus):
        tmp = tmp_path_factory.mktemp("index")
        ordered = sorted(corpus, key=lambda r: r.id)
        for r in ordered:
            r.tree = DependencyTree([0] * len(r.token_list), [-1, *range(len(r.token_list) - 1)])
        vocab = LabelVocabulary(["dep"])
        write_corpus_cache(tmp / "corpus.bin", corpus_columns(ordered, vocab))
        _, _, cached_column = read_corpus_cache(tmp / "corpus.bin")
        indexes = {
            "oracle": oracle_build_index(corpus),
            "records": build_index(corpus),
            "column": index_from_tokens(intern_tokens(ordered)),
            "cache": index_from_tokens(cached_column),
        }
        for name, index in indexes.items():
            save_index(tmp / f"{name}.idx", index)
        oracle = (tmp / "oracle.idx").read_bytes()
        assert {name: (tmp / f"{name}.idx").read_bytes() == oracle for name in indexes} == {
            name: True for name in indexes
        }

    def test_column_lists_tokens_in_first_seen_order(self):
        column = intern_tokens([rec(4, ["b", "a", "b"]), rec(2, ["c", "a"])])
        assert column.names == ["b", "a", "c"]
        assert column.record_ids.tolist() == [4, 2]
        assert column.offsets.tolist() == [0, 3, 5]
        assert column.token_ids.tolist() == [0, 1, 0, 2, 1]


class TestBm25TopK:
    def test_exact_copy_ranks_first(self):
        docs = [
            rec(0, ["the", "cat", "sat"]),
            rec(1, ["a", "dog", "ran", "far", "away"]),
            rec(2, ["the", "cat"]),
        ]
        index = build_index(docs)
        ranked = bm25_topk(index, bag(["the", "cat", "sat"]), k=3)
        assert ranked[0][0] == 0

    def test_no_overlap_is_empty(self):
        index = build_index([rec(0, ["a"]), rec(1, ["b"])])
        assert bm25_topk(index, bag(["zzz"]), k=5) == []

    def test_hand_evaluated_okapi_score(self):
        # Corpus: d0 = [a b], d1 = [a], d2 = [c c b]; query = [a].
        docs = [rec(0, ["a", "b"]), rec(1, ["a"]), rec(2, ["c", "c", "b"])]
        index = build_index(docs)
        params = Bm25Params(k1=1.5, b=0.75)
        ranked = dict(bm25_topk(index, bag(["a"]), k=3, params=params))
        n, df, avgdl = 3, 2, 2.0
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        expected = {}
        for doc_id, tf, dl in ((0, 1.0, 2), (1, 1.0, 1)):
            denom = tf + params.k1 * (1 - params.b + params.b * dl / avgdl)
            expected[doc_id] = idf * tf * (params.k1 + 1) / denom
        assert set(ranked) == {0, 1}
        for doc_id, score in expected.items():
            assert ranked[doc_id] == pytest.approx(score, abs=1e-9)

    def test_query_multiplicity_scales_score(self):
        docs = [rec(0, ["a", "b"]), rec(1, ["b", "c"])]
        index = build_index(docs)
        single = dict(bm25_topk(index, bag(["a"]), k=2))
        double = dict(bm25_topk(index, bag(["a", "a"]), k=2))
        assert double[0] == pytest.approx(2 * single[0])

    def test_saturation_monotone_in_tf(self):
        # Same length, same df; only the query-term frequency varies.
        docs = [
            rec(0, ["q", "f1", "f2", "f3"]),
            rec(1, ["q", "q", "f4", "f5"]),
            rec(2, ["q", "q", "q", "f6"]),
        ]
        index = build_index(docs)
        ranked = bm25_topk(index, bag(["q"]), k=3)
        assert [doc_id for doc_id, _ in ranked] == [2, 1, 0]

    def test_ties_break_by_ascending_id(self):
        docs = [rec(i, ["same", "doc"]) for i in (5, 3, 9, 1)]
        index = build_index(docs)
        ranked = bm25_topk(index, bag(["same"]), k=4)
        assert [doc_id for doc_id, _ in ranked] == [1, 3, 5, 9]

    def test_topk_prefix_consistency(self):
        rng = random.Random(0)
        vocab = [f"w{i}" for i in range(30)]
        docs = [
            rec(i, [rng.choice(vocab) for _ in range(rng.randint(3, 12))]) for i in range(300)
        ]
        index = build_index(docs)
        query = bag([rng.choice(vocab) for _ in range(5)])
        small = bm25_topk(index, query, k=20)
        large = bm25_topk(index, query, k=60)
        assert small == large[:20]

    def test_determinism_across_rebuilds(self):
        rng = random.Random(1)
        vocab = [f"w{i}" for i in range(20)]
        docs = [
            rec(i, [rng.choice(vocab) for _ in range(rng.randint(2, 8))]) for i in range(100)
        ]
        query = bag(["w3", "w7", "w11"])
        first = bm25_topk(build_index(docs), query, k=10)
        second = bm25_topk(build_index(list(docs)), query, k=10)
        assert first == second



def _full_lexsort_topk(index, query, k, params=Bm25Params()):
    """Reference ranking: score every document, lexsort every hit, cut at k."""
    k1, b = params.k1, params.b
    norm = k1 * (1.0 - b + b * (index.lengths / index.avgdl))
    scores = np.zeros(index.doc_count, dtype=np.float64)
    for token, qtf in query.counts.items():
        t = index.name_ids.get(token)
        if t is None:
            continue
        a, b = index.bounds[t], index.bounds[t + 1]
        rows, tfs = index.doc_rows[a:b], index.tfs[a:b]
        scores[rows] += qtf * index.idf(token) * (tfs * (k1 + 1.0)) / (tfs + norm[rows])
    hit_rows = np.nonzero(scores > 0.0)[0]
    hit_ids = index.ids[hit_rows]
    hit_scores = scores[hit_rows]
    order = np.lexsort((hit_ids, -hit_scores))[:k]
    return [(int(hit_ids[i]), float(hit_scores[i])) for i in order]


class TestBm25PartialSort:
    """bm25_topk sorts only the hits that can reach the top k; the ranking must not change."""

    @staticmethod
    def _duplicated_corpus(seed: int):
        # 12 distinct documents, each repeated 5-15 times under shuffled ids,
        # so whole groups of hits share one score.
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(10)]
        distinct = [[rng.choice(vocab) for _ in range(rng.randint(2, 7))] for _ in range(12)]
        tokens = [doc for doc in distinct for _ in range(rng.randint(5, 15))]
        ids = rng.sample(range(10 * len(tokens)), len(tokens))
        return [rec(i, doc) for i, doc in zip(ids, tokens)], vocab

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 3, 7, 20, 64])
    def test_cut_inside_a_tie_group_matches_full_sort(self, seed, k):
        docs, vocab = self._duplicated_corpus(seed)
        index = build_index(docs)
        rng = random.Random(100 + seed)
        cuts_in_ties = 0
        for _ in range(10):
            query = bag([rng.choice(vocab) for _ in range(rng.randint(1, 4))])
            assert bm25_topk(index, query, k=k) == _full_lexsort_topk(index, query, k)
            every_hit = _full_lexsort_topk(index, query, len(docs))
            cuts_in_ties += len(every_hit) > k and every_hit[k - 1][1] == every_hit[k][1]
        assert cuts_in_ties > 0

    def test_k_at_or_above_hit_count_returns_every_hit(self):
        docs, _ = self._duplicated_corpus(7)
        index = build_index(docs)
        query = bag(["w2"])
        hits = int(np.count_nonzero([d.tokens.counts["w2"] for d in docs]))
        assert hits > 0
        for k in (hits, hits + 1, 10 * hits):
            ranked = bm25_topk(index, query, k=k)
            assert ranked == _full_lexsort_topk(index, query, k)
            assert len(ranked) == hits

    def test_query_with_no_hits(self):
        docs, _ = self._duplicated_corpus(3)
        index = build_index(docs)
        query = bag(["absent", "also-absent"])
        assert _full_lexsort_topk(index, query, 5) == []
        assert bm25_topk(index, query, k=5) == []


def _bits(ranked):
    return [(i, score.hex()) for i, score in ranked]


def _is_dense(index, t):
    """Whether token ``t``'s posting covers more than doc_count / _DENSE_DIVISOR documents."""
    return bool((index.bounds[t + 1] - index.bounds[t]) * _DENSE_DIVISOR > index.doc_count)


class TestDenseContributions:
    """A token in a large share of the documents adds a dense vector kept per
    (token, query count) and per Bm25Params; the other tokens keep their
    denominators per Bm25Params.  Every score and the ranking stay those of
    the scatter-add over postings."""

    @settings(max_examples=150, deadline=None)
    @given(corpora(), st.data())
    def test_topk_equals_the_per_query_formula(self, corpus, data):
        # Every document twice, under two ids, so hits come in groups of an
        # even size, and an odd k < hits cuts inside a group of equal scores.
        ids = data.draw(st.lists(st.integers(0, 100_000), min_size=2 * len(corpus),
                                 max_size=2 * len(corpus), unique=True))
        docs = [rec(i, list(d.token_list)) for i, d in zip(ids, corpus + corpus)]
        index = build_index(docs)
        words = sorted({t for d in corpus for t in d.token_list}) + ["absent"]
        other = Bm25Params(
            k1=data.draw(st.floats(0.0, 3.0, allow_nan=False)),
            b=data.draw(st.floats(0.0, 1.0, allow_nan=False)),
        )
        for _ in range(3):
            query = bag(data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=6)))
            hits = len(_full_lexsort_topk(index, query, len(docs)))
            k = data.draw(st.integers(1, max(1, hits - 1)).filter(lambda k: k % 2 or hits < 2))
            for params in (Bm25Params(), other, Bm25Params()):
                ranked = bm25_topk(index, query, k=k, params=params)
                assert _bits(ranked) == _bits(_full_lexsort_topk(index, query, k, params))
                every = _full_lexsort_topk(index, query, len(docs), params)
                if len(every) > k:
                    assert every[k - 1][1] == every[k][1]
        assert index.dense_tokens == {t for t in range(len(index.names)) if _is_dense(index, t)}
        for scorer in (index.scorer(Bm25Params()), index.scorer(other)):
            assert all(_is_dense(index, t) for t, _ in scorer.dense)
            assert not any(_is_dense(index, t) for t in scorer.denominators)

    def test_dense_vectors_are_kept_per_token_qtf_and_params(self):
        # "a" is in 15 of 16 documents, "c" in 1.
        docs = [rec(0, ["a", "b", "a"]), rec(1, ["b"]), rec(2, ["c", "a"])]
        docs += [rec(i, ["a"] * (i % 3 + 1) + ["d"] * (i % 2)) for i in range(3, 16)]
        index = build_index(docs)
        a, c = index.name_ids["a"], index.name_ids["c"]
        assert _is_dense(index, a) and not _is_dense(index, c)
        assert a in index.dense_tokens and c not in index.dense_tokens
        params = Bm25Params(k1=1.2, b=0.5)
        scorer = index.scorer(params)
        assert scorer.dense == {} and scorer.denominators == {}  # nothing before a query
        for query in (["a", "a", "c"], ["a", "c"], ["c"], ["a", "a", "c"]):
            bm25_topk(index, bag(query), k=3, params=params)
        assert index.scorer(params) is scorer
        assert set(scorer.dense) == {(a, 2), (a, 1)}
        assert set(scorer.denominators) == {c}
        norm = params.k1 * (1.0 - params.b + params.b * (index.lengths / index.avgdl))
        rows, tfs = index.posting(a)
        for qtf in (1, 2):
            expected = np.zeros(len(docs))
            expected[rows] = qtf * index.idf("a") * (tfs * (params.k1 + 1.0)) / (tfs + norm[rows])
            assert scorer.dense[a, qtf].tobytes() == expected.tobytes()
            assert scorer.dense_contribution(a, qtf) is scorer.dense[a, qtf]
        rows, tfs = index.posting(c)
        assert scorer.denominators[c].tobytes() == (tfs + norm[rows]).tobytes()
        default = index.scorer(Bm25Params())
        assert default is not scorer and default.dense == {}
        assert default.dense_contribution(a, 1).tolist() != scorer.dense[a, 1].tolist()

    def test_repeated_tokens_on_both_sides_of_the_cut(self):
        # 400 documents; token w<j> is in about (j + 1) / 25 of them, so the
        # 24 tokens spread over both sides of the cut.  "edge" is in exactly
        # as many documents as the cut, "over" in one more.
        cut = 400 // _DENSE_DIVISOR
        rng = random.Random(11)
        docs = []
        for i in range(400):
            tokens = [f"w{j}" for j in range(24) for _ in range(rng.randint(1, 4))
                      if rng.random() < (j + 1) / 25]
            tokens += ["edge"] * (i < cut) + ["over"] * (i >= 399 - cut) + [f"own{i}"]
            rng.shuffle(tokens)
            docs.append(rec(rng.randrange(10**6) * 400 + i, tokens))
        words = [f"w{j}" for j in range(24)] + ["edge", "over", "own7", "absent"]
        queries = []
        for _ in range(60):
            picked = rng.sample(words, rng.randint(1, 6))
            queries.append(bag([w for w in picked for _ in range(rng.randint(1, 9))]))
        # Every count from 1 to 9 on each side of the cut and at it.
        queries += [bag(["w1"] * q + ["w23"] * q + ["edge"] * (10 - q) + ["over"] * (10 - q))
                    for q in range(1, 10)]
        runs = [(query, params, k) for query in queries for k in (1, 10, 400)
                for params in (Bm25Params(), Bm25Params(k1=0.0, b=0.3), Bm25Params(k1=2.5, b=1.0))]

        fresh = build_index(docs)
        assert not _is_dense(fresh, fresh.name_ids["edge"])
        assert _is_dense(fresh, fresh.name_ids["over"])
        qtfs = {(_is_dense(fresh, fresh.name_ids[w]), q) for query, _, _ in runs
                for w, q in query.counts.items() if w in fresh.name_ids}
        assert qtfs == {(dense, q) for dense in (False, True) for q in range(1, 10)}
        expected = [_bits(_full_lexsort_topk(fresh, q, k, p)) for q, p, k in runs]
        assert [_bits(bm25_topk(fresh, q, k, p)) for q, p, k in runs] == expected
        warmed = {p: (set(fresh.scorer(p).dense), set(fresh.scorer(p).denominators))
                  for _, p, _ in runs}
        assert all(dense and denominators for dense, denominators in warmed.values())
        assert [_bits(bm25_topk(fresh, q, k, p)) for q, p, k in runs] == expected
        reverse = build_index(docs)
        assert [_bits(bm25_topk(reverse, q, k, p)) for q, p, k in runs[::-1]] == expected[::-1]
        assert {p: (set(reverse.scorer(p).dense), set(reverse.scorer(p).denominators))
                for _, p, _ in runs} == warmed


def _word_matrix(docs, query, index):
    """word_matrix of ``docs`` (in their order) over the query's tokens."""
    rows = index.rows([d.id for d in docs])
    column = intern_tokens(sorted(docs, key=lambda d: d.id))
    counts = token_table(column, column.name_ids(), rows, tuple(query.counts))
    return word_matrix(rows, counts, query, index)


class TestWordMatrix:
    def test_absent_term_entry_is_zero(self):
        docs = [rec(0, ["a", "b"]), rec(1, ["c", "d"])]
        index = build_index(docs)
        wm = _word_matrix(docs, bag(["a"]), index)
        assert wm[1, 0] == 0.0
        assert wm[0, 0] > 0.0

    def test_unit_length_candidate_entry_equals_idf(self):
        # tf = 1 and l_i = 1 make the saturation factor cancel exactly.
        docs = [rec(0, ["a", "b"])]
        index = build_index(docs)  # avgdl == 2 == doc length -> l_i = 1
        query = bag(["a", "b"])
        wm = _word_matrix(docs, query, index)
        for j, term in enumerate(query.counts):
            assert wm[0, j] == pytest.approx(index.idf(term), abs=1e-12)

    def test_longer_candidate_scores_strictly_less(self):
        docs = [rec(0, ["a", "b"]), rec(1, ["a", "b", "c", "d"])]
        index = build_index(docs)
        wm = _word_matrix(docs, bag(["a"]), index)
        assert wm[1, 0] < wm[0, 0]

    def test_row_column_alignment(self):
        docs = [rec(7, ["x"]), rec(3, ["y"])]
        index = build_index(docs)
        wm = _word_matrix(docs, bag(["y", "x"]), index)
        assert wm[0, 1] > 0.0 and wm[1, 0] > 0.0
        assert wm[0, 0] == 0.0 and wm[1, 1] == 0.0


class TestTokenTable:
    def test_equals_each_documents_token_counts(self):
        rng = random.Random(8)
        docs = [rec(i, [rng.choice("abcdef") for _ in range(rng.randint(1, 9))])
                for i in rng.sample(range(500), 60)]
        index = build_index(docs)
        query = tuple("fbazc")
        picked = rng.sample(docs, 25)
        column = intern_tokens(sorted(docs, key=lambda d: d.id))
        table = token_table(column, column.name_ids(), index.rows([d.id for d in picked]), query)
        assert table.dtype == np.int64
        assert table.tolist() == [[d.tokens.counts.get(t, 0) for t in query] for d in picked]

    def test_tokens_outside_the_column_count_zero(self):
        docs = [rec(3, ["a", "b", "a"]), rec(5, ["c"]), rec(9, ["b", "b"])]
        column = intern_tokens(docs)
        name_ids = column.name_ids()
        assert name_ids == {"a": 0, "b": 1, "c": 2}
        table = token_table(column, name_ids, np.array([2, 0]), ("zz", "b", "a", "c"))
        assert table.tolist() == [[0, 2, 0, 0], [0, 1, 2, 0]]
        assert token_table(column, name_ids, np.array([1]), ()).shape == (1, 0)
        assert token_table(column, name_ids, np.zeros(0, np.int64), ("a",)).shape == (0, 1)

    def test_unindexed_id_rejected(self):
        index = build_index([rec(1, ["a"]), rec(4, ["b"])])
        for ids in ([2], [5], [0]):
            with pytest.raises(ValueError, match="not in the index"):
                index.rows(ids)


class TestIndexPersistence:
    def _corpus(self):
        rng = random.Random(4)
        vocab = [f"t{i}" for i in range(25)]
        return [
            rec(i, [rng.choice(vocab) for _ in range(rng.randint(2, 9))]) for i in range(120)
        ]

    def test_round_trip_reproduces_queries(self, tmp_path):
        docs = self._corpus()
        index = build_index(docs)
        path = tmp_path / "bm25.idx"
        save_index(path, index)
        loaded = load_index(path)
        query = bag(["t1", "t2", "t3"])
        assert bm25_topk(index, query, k=25) == bm25_topk(loaded, query, k=25)
        assert loaded.avgdl == index.avgdl
        assert loaded.doc_count == index.doc_count

    def test_two_saves_are_byte_identical(self, tmp_path):
        docs = self._corpus()
        a, b = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(a, build_index(docs))
        save_index(b, build_index(docs))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b'{"format":"nope","version":1,"tokens":[]}\n')
        with pytest.raises(DataError):
            load_index(path)

    @pytest.mark.parametrize("first", ["(", "<"])
    def test_corrupt_segment_header_is_a_located_data_error(self, tmp_path, first):
        # Read with np.load, a header dict that leaves a bracket unbalanced
        # made numpy's header tokenizer raise tokenize.TokenError.
        path = tmp_path / "bm25.idx"
        save_index(path, build_index(self._corpus()))
        data = bytearray(path.read_bytes())
        dict_start = data.index(b"\n") + 1 + 10  # magic, version, header length
        assert data[dict_start:dict_start + 1] == b"{"
        data[dict_start] = ord(first)
        path.write_bytes(bytes(data))
        with pytest.raises(DataError) as err:
            load_index(path)
        assert str(err.value).startswith(f"{path}: corrupt array segment (ids: ")
