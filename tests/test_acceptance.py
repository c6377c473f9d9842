"""Acceptance suite: one test per release criterion, strictest tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are pinned here and nowhere else.
"""

import functools
import itertools
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from scoi.bench import random_tree, run_bench
from scoi.cli import main as cli_main
from scoi.corpus import ExampleRecord
from scoi.coverage import TokenBag, syn_set_cov, term_similarity, word_set_cov
from scoi.prompts import PromptTemplate, render_prompt
from scoi.retrieval import Bm25Params, bm25_topk, build_index
from scoi.selection import SelectionPlan, select_dpp, select_scoi, select_single_coverage
from scoi.treepoly import DependencyTree, encode_term, simplified_polynomial

from conftest import make_record, make_vocab, path_term_oracle, random_pool, random_record
from test_selection import (
    _dpp_setup,
    _logdet,
    _naive_syn_cov,
    _naive_word_cov,
    algorithm1_oracle,
    assert_committed_scores_increase,
    impl_trace,
    traces_match,
)

REPO = Path(__file__).resolve().parent.parent
DEMO_CFG = REPO / "data" / "demo" / "demo.cfg"


def criterion(num: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num:2d} FAIL  {name}")
                raise
            print(f"\ncriterion {num:2d} PASS  {name}")
            return result

        return wrapper

    return decorate


def _exhaustive_shapes(max_nodes: int):
    """Every rooted tree on n <= max_nodes nodes with increasing parents."""
    for n in range(1, max_nodes + 1):
        if n == 1:
            yield [-1]
            continue
        for combo in itertools.product(*[range(i) for i in range(1, n)]):
            yield [-1] + list(combo)


def _acceptance_tree_set():
    rng = random.Random(20240)
    vocab_size = 8
    trees = []
    for parents in _exhaustive_shapes(7):
        labels = [i % vocab_size for i in range(len(parents))]
        trees.append(DependencyTree(labels, parents))
    for _ in range(10_000):
        trees.append(random_tree(rng.randint(1, 200), vocab_size, rng))
    return trees, make_vocab(vocab_size)


@criterion(1, "term-count law on 10k random trees plus exhaustive shapes, < 10 s")
def test_criterion_01_term_count_law():
    start = time.perf_counter()
    trees, vocab = _acceptance_tree_set()
    polys = [simplified_polynomial(tree, vocab) for tree in trees]
    for tree, poly in zip(trees, polys):
        assert poly.n_terms == tree.n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"term-count law sweep took {elapsed:.2f}s"


@criterion(2, "path-oracle multiset equivalence on the same tree set, zero mismatches")
def test_criterion_02_path_oracle_equivalence():
    trees, vocab = _acceptance_tree_set()
    mismatches = 0
    for tree in trees:
        poly = simplified_polynomial(tree, vocab)
        if Counter(dict(poly.term_vectors())) != path_term_oracle(tree):
            mismatches += 1
    assert mismatches == 0


@criterion(3, "complexity separation: slopes >= 3.0 / <= 2.0 and >= 100x blow-up, < 60 s")
def test_criterion_03_complexity_separation():
    start = time.perf_counter()
    report = run_bench(qs=(2, 3), ts=(2, 4, 8, 16), budget=1_000_000)
    q2 = report.slopes["q=2"]
    assert q2["original_mults_slope"] >= 3.0
    assert q2["simplified_work_slope"] <= 2.0
    feasible = [row for row in report.rows if row.q == 3 and row.original_status == "ok"]
    assert feasible, "no q=3 instance finished under budget"
    largest = max(feasible, key=lambda row: row.t)
    assert largest.term_ratio >= 100.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"bench took {elapsed:.2f}s"


def _random_coverage_instance(rng):
    dim = 6
    x_terms = [
        {rng.randrange(dim): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}
        for _ in range(rng.randint(1, 10))
    ]
    pool_terms = [
        {rng.randrange(dim): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}
        for _ in range(rng.randint(1, 30))
    ]
    return x_terms, pool_terms, dim


def _poly_of(term_maps, dim):
    counter = Counter()
    for mapping in term_maps:
        counter[encode_term(mapping)] += 1
    from scoi.treepoly import Polynomial

    return Polynomial(counter, dim)


def _sim_oracle(s, t, measure):
    if measure == "normalized-manhattan":
        keys = set(s) | set(t)
        return 1.0 / (1.0 + sum(abs(s.get(k, 0) - t.get(k, 0)) for k in keys))
    dot = sum(e * t.get(k, 0) for k, e in s.items())
    return dot / (
        sum(e * e for e in s.values()) ** 0.5 * sum(e * e for e in t.values()) ** 0.5
    )


@criterion(4, "coverage equals naive double-loop oracles on 10k instances (1e-12 rel)")
def test_criterion_04_coverage_oracle_equivalence():
    rng = random.Random(777)
    words = [f"w{i}" for i in range(12)]
    for case in range(10_000):
        x_terms, pool_terms, dim = _random_coverage_instance(rng)
        x = _poly_of(x_terms, dim)
        pool = _poly_of(pool_terms, dim)
        got = syn_set_cov(x, pool)
        want = sum(
            max(_sim_oracle(s, t, "normalized-manhattan") for t in pool_terms)
            for s in x_terms
        ) / len(x_terms)
        assert got == pytest.approx(want, rel=1e-12), f"case {case}"

        x_bag = Counter(rng.choices(words, k=rng.randint(1, 10)))
        pool_bag = Counter(rng.choices(words, k=rng.randint(1, 30)))
        got_w = word_set_cov(TokenBag(x_bag), TokenBag(pool_bag))
        want_w = sum(min(c, pool_bag.get(t, 0)) for t, c in x_bag.items()) / sum(
            x_bag.values()
        )
        assert got_w == pytest.approx(want_w, rel=1e-12), f"case {case}"


@criterion(5, "coverage invariants (monotone, self-cover, bounds) and hand cases at 1e-12")
def test_criterion_05_coverage_invariants():
    # Hand cases.
    assert term_similarity(((0, 1), (1, 2)), ((0, 1), (1, 2))) == pytest.approx(1.0, abs=1e-12)
    assert term_similarity(((0, 1),), ((1, 1),)) == pytest.approx(1 / 3, abs=1e-12)
    assert term_similarity(((0, 1),), ((0, 2),)) == pytest.approx(0.5, abs=1e-12)
    assert term_similarity(((0, 1),), ((0, 2),), "cosine") == pytest.approx(1.0, abs=1e-12)

    rng = random.Random(888)
    words = [f"w{i}" for i in range(10)]
    for _ in range(2_000):
        x_terms, pool_terms, dim = _random_coverage_instance(rng)
        x = _poly_of(x_terms, dim)
        for measure in ("normalized-manhattan", "cosine"):
            base = syn_set_cov(x, _poly_of(pool_terms, dim), measure)
            grown = syn_set_cov(x, _poly_of(pool_terms + [x_terms[0]], dim), measure)
            assert grown >= base
            self_cover = syn_set_cov(x, _poly_of(pool_terms + x_terms, dim), measure)
            assert self_cover == pytest.approx(1.0, abs=1e-12)
            if measure == "normalized-manhattan":
                assert 0.0 < base <= 1.0
            else:
                assert 0.0 <= base <= 1.0

        x_bag = Counter(rng.choices(words, k=rng.randint(1, 8)))
        pool_bag = Counter(rng.choices(words, k=rng.randint(1, 20)))
        cov = word_set_cov(TokenBag(x_bag), TokenBag(pool_bag))
        assert 0.0 <= cov <= 1.0
        grown_bag = Counter(pool_bag)
        grown_bag.update(x_bag)
        assert word_set_cov(TokenBag(x_bag), TokenBag(grown_bag)) == pytest.approx(
            1.0, abs=1e-12
        )


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


@criterion(6, "alternating-greedy traces equal the straight-line oracle on 1000 pools")
def test_criterion_06_algorithm_fidelity():
    vocab = make_vocab(3)
    rng = random.Random(4242)
    orders = ("syntax-first", "word-first")
    for case in range(1_000):
        order = orders[case % 2]
        test = random_record(rng, 9000 + case, vocab, WORDS)
        pool = random_pool(rng, 20, vocab, WORDS)
        plan = SelectionPlan(strategy="scoi", k=4, order=order, pool_size=20)
        result = select_scoi(test, pool, plan)
        oracle_ids, oracle_trace = algorithm1_oracle(test, pool, 4, order=order)
        assert result.selected == oracle_ids, f"case {case}"
        assert traces_match(impl_trace(result), oracle_trace), f"case {case}"
        assert_committed_scores_increase(result)
        assert len(set(result.selected)) == 4


@criterion(7, "scoi, syntax-only and word-only all pick a double-dominating candidate first")
def test_criterion_07_ablation_consistency():
    vocab = make_vocab(4)
    rng = random.Random(31415)
    built = 0
    while built < 50:
        test = random_record(rng, 10_000 + built, vocab, WORDS)
        dominator = make_record(500 + built, test.tree, list(test.token_list), vocab)
        weak = random_pool(rng, 6, vocab, ["other1", "other2", "other3"])
        strict = all(
            _naive_syn_cov(test, [w], "normalized-manhattan")
            < _naive_syn_cov(test, [dominator], "normalized-manhattan")
            and _naive_word_cov(test, [w]) < _naive_word_cov(test, [dominator])
            for w in weak
        )
        if not strict:
            continue
        built += 1
        pool = weak + [dominator]
        for strategy in ("scoi", "syntax-only", "word-only"):
            plan = SelectionPlan(strategy=strategy, k=1, pool_size=len(pool))
            if strategy == "scoi":
                result = select_scoi(test, pool, plan)
            else:
                result = select_single_coverage(test, pool, plan)
            assert result.selected[0] == dominator.id, strategy


@criterion(8, "DPP greedy equals exhaustive on orthogonal pools, never beats it on 1000 pools")
def test_criterion_08_dpp_small_scale():
    vocab = make_vocab(3)
    rng = random.Random(2718)

    # Orthogonal pools: disjoint candidate vocabularies, every size up to 8.
    for size in range(2, 9):
        for k in range(1, min(3, size) + 1):
            test_tokens = [f"q{i}" for i in range(size)]
            test = make_record(
                0, DependencyTree([0, 1], [-1, 0]), test_tokens, vocab
            )
            pool = [
                make_record(
                    10 + i,
                    random_tree(rng.randint(2, 6), 3, rng),
                    [f"q{i}", f"only{i}"],
                    vocab,
                )
                for i in range(size)
            ]
            plan = SelectionPlan(strategy="dpp", k=k, pool_size=size)
            index, by_id, kernel = _dpp_setup(pool, test, plan)
            result = select_dpp(test, pool, plan, index)
            rows = sorted(
                next(i for i, r in enumerate(by_id) if r.id == rid)
                for rid in result.selected
            )
            achieved = _logdet(kernel, rows)
            best = max(
                _logdet(kernel, list(subset))
                for subset in itertools.combinations(range(size), k)
            )
            assert achieved == pytest.approx(best, rel=1e-9, abs=1e-12)

    # Random pools: greedy never exceeds the exhaustive optimum.
    for case in range(1_000):
        test = random_record(rng, 20_000 + case, vocab, WORDS)
        size = rng.randint(4, 8)
        k = rng.randint(1, 3)
        pool = random_pool(rng, size, vocab, WORDS)
        plan = SelectionPlan(strategy="dpp", k=k, pool_size=size)
        index, by_id, kernel = _dpp_setup(pool, test, plan)
        result = select_dpp(test, pool, plan, index)
        rows = sorted(
            next(i for i, r in enumerate(by_id) if r.id == rid) for rid in result.selected
        )
        achieved = _logdet(kernel, rows)
        best = max(
            _logdet(kernel, list(subset))
            for subset in itertools.combinations(range(size), len(rows))
        )
        assert achieved <= best + 1e-9, f"case {case}"

    # Duplicates never co-selected while an independent candidate remains.
    tree = DependencyTree([0, 1], [-1, 0])
    for case in range(50):
        test = make_record(99_999, tree, ["u", "v", "w"], vocab)
        dups = [make_record(1, tree, ["u", "v"], vocab), make_record(2, tree, ["u", "v"], vocab)]
        indep = make_record(3, random_tree(3, 3, rng), ["w", f"x{case}"], vocab)
        pool = dups + [indep]
        plan = SelectionPlan(strategy="dpp", k=2, pool_size=3)
        index = build_index(pool)
        result = select_dpp(test, pool, plan, index)
        assert set(result.selected) != {1, 2}


def _synthetic_bm25_corpus(n_docs=10_000, vocab_size=2_000, seed=555):
    rng = random.Random(seed)
    vocab = [f"tok{i}" for i in range(vocab_size)]
    weights = [1.0 / (rank + 1) for rank in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        tokens = rng.choices(vocab, weights=weights, k=rng.randint(5, 30))
        docs.append(
            ExampleRecord(i, " ".join(tokens), "", tuple(tokens), TokenBag.from_tokens(tokens))
        )
    return docs, vocab, rng


@criterion(9, "BM25: 1e-9 hand fixtures, prefix/monotone properties at 10k docs, < 5 ms/query")
def test_criterion_09_bm25():
    # Hand-evaluated Okapi fixture.
    small = [
        ExampleRecord(0, "a b", "", ("a", "b"), TokenBag.from_tokens(["a", "b"])),
        ExampleRecord(1, "a", "", ("a",), TokenBag.from_tokens(["a"])),
        ExampleRecord(2, "c c b", "", ("c", "c", "b"), TokenBag.from_tokens(["c", "c", "b"])),
    ]
    params = Bm25Params()
    scores = dict(bm25_topk(build_index(small), TokenBag.from_tokens(["a"]), 3, params))
    idf = math.log((3 - 2 + 0.5) / (2 + 0.5) + 1.0)
    for doc_id, tf, dl in ((0, 1.0, 2), (1, 1.0, 1)):
        denom = tf + params.k1 * (1 - params.b + params.b * dl / 2.0)
        assert scores[doc_id] == pytest.approx(idf * tf * (params.k1 + 1) / denom, abs=1e-9)

    docs, vocab, rng = _synthetic_bm25_corpus()
    index = build_index(docs)

    queries = [
        TokenBag.from_tokens(rng.choices(vocab[:400], k=rng.randint(3, 12)))
        for _ in range(100)
    ]
    # Prefix consistency.
    for query in queries[:50]:
        small_k = bm25_topk(index, query, k=100)
        large_k = bm25_topk(index, query, k=200)
        assert small_k == large_k[:100]

    # Monotonicity: appending one more occurrence of a query token never
    # decreases that document's score.
    query = queries[0]
    target_token = next(iter(query.counts))
    modified_ids = rng.sample(range(len(docs)), 30)
    modified = []
    for record in docs:
        if record.id in modified_ids:
            tokens = record.token_list + (target_token,)
            modified.append(
                ExampleRecord(record.id, " ".join(tokens), "", tokens, TokenBag.from_tokens(tokens))
            )
        else:
            modified.append(record)
    before = dict(bm25_topk(index, query, k=len(docs)))
    after = dict(bm25_topk(build_index(modified), query, k=len(docs)))
    for doc_id in modified_ids:
        assert after.get(doc_id, 0.0) >= before.get(doc_id, 0.0)

    # Docs sharing no query token never appear.
    for query in queries[:10]:
        hits = dict(bm25_topk(index, query, k=len(docs)))
        for doc_id in list(hits)[:50]:
            assert any(t in docs[doc_id].tokens.counts for t in query.counts)

    # Latency: mean per query below 5 ms at 10k docs.
    start = time.perf_counter()
    for query in queries:
        bm25_topk(index, query, k=100)
    per_query = (time.perf_counter() - start) / len(queries)
    assert per_query < 0.005, f"mean query latency {per_query * 1e3:.2f} ms"


@criterion(10, "end-to-end byte determinism on the demo corpus plus prompt fixtures")
def test_criterion_10_end_to_end_determinism(tmp_path):
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["build", "--config", str(DEMO_CFG), "--out-dir", str(out)]) == 0
        assert cli_main(["select", "--config", str(DEMO_CFG), "--out-dir", str(out)]) == 0
        outs.append(out)
    strategies = ("scoi", "syntax-only", "word-only", "topk-poly", "dpp",
                  "bm25-passthrough", "random")
    for strategy in strategies:
        for kind in ("selections", "prompts"):
            a = (outs[0] / f"{kind}_{strategy}.jsonl").read_bytes()
            b = (outs[1] / f"{kind}_{strategy}.jsonl").read_bytes()
            assert a == b, f"{kind}_{strategy} differs between runs"

    # Prompt renders against the frozen template fixtures.
    examples = [
        ("Der Hund schläft.", "The dog sleeps."),
        ("Die Katze rennt.", "The cat runs."),
        ("Ich sehe den Fluss.", "I see the river."),
        ("Wir lesen ein Buch.", "We read a book."),
    ]
    fixtures = Path(__file__).resolve().parent / "fixtures"
    delim = render_prompt(
        PromptTemplate("delimiter", "German", "English"), examples, "Der Vogel singt."
    )
    assert delim == (fixtures / "prompt_delimiter_k4.txt").read_text(encoding="utf-8")
    instr = render_prompt(
        PromptTemplate("instruction", "German", "English"), examples, "Der Vogel singt."
    )
    assert instr == (fixtures / "prompt_instruction_k4.txt").read_text(encoding="utf-8")


@criterion(11, "simplified polynomial construction >= 50k sentences/s on 25-node trees")
def test_criterion_11_throughput():
    rng = random.Random(99)
    vocab = make_vocab(12)
    trees = [random_tree(25, 12, rng) for _ in range(3_000)]
    best = 0.0
    for _ in range(3):
        start = time.perf_counter()
        for tree in trees:
            simplified_polynomial(tree, vocab)
        elapsed = time.perf_counter() - start
        best = max(best, len(trees) / elapsed)
    assert best >= 50_000, f"best throughput {best:,.0f} sentences/s"
