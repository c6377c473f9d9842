import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from scoi.retrieval import Bm25Params, build_index
from scoi.selection import (
    SelectionPlan,
    dpp_kernel,
    run_strategy,
    select_bm25,
    select_dpp,
    select_random,
    select_scoi,
    select_single_coverage,
    select_topk_poly,
)
from scoi.retrieval import intern_tokens, token_table, word_matrix
from scoi.treepoly import polynomial_distance

from conftest import make_record, make_tree, make_vocab, random_pool, random_record


# --- straight-line reference for the alternating greedy loop ------------------
#
# Independent oracle: recomputes both coverages naively from scratch at every
# step and keeps no incremental state.  Restart rule as documented: the live
# cover is emptied and both mode scores reset.


def _naive_sim(s: dict, t: dict, measure: str) -> float:
    if measure == "normalized-manhattan":
        keys = set(s) | set(t)
        return 1.0 / (1.0 + sum(abs(s.get(k, 0) - t.get(k, 0)) for k in keys))
    dot = sum(e * t.get(k, 0) for k, e in s.items())
    ns = sum(e * e for e in s.values()) ** 0.5
    nt = sum(e * e for e in t.values()) ** 0.5
    return dot / (ns * nt)


def _expand_terms(record) -> list[dict]:
    return [dict(pairs) for pairs, count in record.poly.term_vectors() for _ in range(count)]


def _naive_syn_cov(test, members, measure) -> float:
    x_terms = _expand_terms(test)
    pool_terms = [t for member in members for t in _expand_terms(member)]
    total = 0.0
    for s in x_terms:
        total += max(_naive_sim(s, t, measure) for t in pool_terms)
    return total / len(x_terms)


def _naive_word_cov(test, members) -> float:
    pool: Counter = Counter()
    for member in members:
        pool.update(member.tokens.counts)
    covered = sum(min(c, pool.get(tok, 0)) for tok, c in test.tokens.counts.items())
    return covered / test.tokens.total


def algorithm1_oracle(test, pool, k, order="syntax-first", measure="normalized-manhattan",
                      single_mode=None):
    z: list[int] = []
    z_curr: list = []
    curr_syn = -math.inf
    curr_word = -math.inf
    trace: list[tuple] = []
    by_id = sorted(pool, key=lambda r: r.id)
    while len(z) < k:
        remaining = [r for r in by_id if r.id not in z]
        if not remaining:
            break
        if single_mode is not None:
            mode = single_mode
        else:
            first, second = ("syntax", "word") if order == "syntax-first" else ("word", "syntax")
            mode = first if len(z) % 2 == 0 else second
        best_cand = None
        best_cov = -math.inf
        for cand in remaining:
            members = z_curr + [cand]
            cov = (
                _naive_syn_cov(test, members, measure)
                if mode == "syntax"
                else _naive_word_cov(test, members)
            )
            if cov > best_cov:
                best_cand, best_cov = cand, cov
        curr = curr_syn if mode == "syntax" else curr_word
        if best_cov > curr:
            z.append(best_cand.id)
            z_curr.append(best_cand)
            if mode == "syntax":
                curr_syn = best_cov
            else:
                curr_word = best_cov
            trace.append((mode, "commit", best_cand.id, best_cov))
        else:
            z_curr = []
            curr_syn = -math.inf
            curr_word = -math.inf
            trace.append((mode, "restart", None, best_cov))
    return z, trace


def impl_trace(result) -> list[tuple]:
    out = []
    for step in result.steps:
        if step["action"] == "commit":
            out.append((step["mode"], "commit", step["chosen"], step["coverage"]))
        elif step["action"] == "restart":
            out.append((step["mode"], "restart", None, step["best_rejected"]))
    return out


def traces_match(impl, oracle) -> bool:
    if len(impl) != len(oracle):
        return False
    for (m1, a1, c1, v1), (m2, a2, c2, v2) in zip(impl, oracle):
        if (m1, a1, c1) != (m2, a2, c2):
            return False
        if not math.isclose(v1, v2, rel_tol=1e-9, abs_tol=1e-12):
            return False
    return True


def assert_committed_scores_increase(result) -> None:
    """Committed coverages per mode must strictly increase between restarts."""
    live: dict[str, float] = {}
    for step in result.steps:
        if step["action"] == "commit":
            prev = live.get(step["mode"])
            if prev is not None:
                assert step["coverage"] > prev
            live[step["mode"]] = step["coverage"]
        elif step["action"] == "restart":
            live = {}


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


class TestScoi:
    def test_exact_copy_selected_first(self):
        vocab = make_vocab(3)
        rng = random.Random(0)
        test = make_record(500, make_tree([0, 1, 2], [-1, 0, 0]), ["a", "b", "c"], vocab)
        copy = make_record(7, make_tree([0, 1, 2], [-1, 0, 0]), ["a", "b", "c"], vocab)
        others = [random_record(rng, rid, vocab, WORDS) for rid in (3, 11, 42)]
        plan = SelectionPlan(strategy="scoi", k=2, pool_size=4)
        result = select_scoi(test, others + [copy], plan)
        assert result.selected[0] == 7

    def test_k1_matches_exhaustive_argmax(self):
        vocab = make_vocab(4)
        rng = random.Random(3)
        test = random_record(rng, 900, vocab, WORDS)
        pool = random_pool(rng, 3, vocab, WORDS)
        plan = SelectionPlan(strategy="scoi", k=1, pool_size=3)
        result = select_scoi(test, pool, plan)
        scored = [(r.id, _naive_syn_cov(test, [r], "normalized-manhattan")) for r in pool]
        top = max(cov for _, cov in scored)
        winners = sorted(rid for rid, cov in scored if cov == top)
        assert result.selected == [winners[0]]

    @pytest.mark.parametrize("order", ["syntax-first", "word-first"])
    def test_trace_matches_oracle_on_random_pools(self, order):
        vocab = make_vocab(3)
        rng = random.Random(1234)
        for _ in range(150):
            test = random_record(rng, 5000, vocab, WORDS)
            pool = random_pool(rng, 20, vocab, WORDS)
            plan = SelectionPlan(strategy="scoi", k=4, order=order, pool_size=20)
            result = select_scoi(test, pool, plan)
            oracle_ids, oracle_trace = algorithm1_oracle(test, pool, 4, order=order)
            assert result.selected == oracle_ids
            assert traces_match(impl_trace(result), oracle_trace)
            assert_committed_scores_increase(result)
            assert len(set(result.selected)) == len(result.selected) == 4

    def test_restart_reevaluates_against_empty_cover(self):
        # All candidates share one token bag: the second word step cannot
        # improve, forcing a restart; the following commit must be scored
        # against an empty cover.
        vocab = make_vocab(2)
        tree = make_tree([0, 1], [-1, 0])
        test = make_record(99, tree, ["x", "y"], vocab)
        pool = [make_record(rid, tree, ["x", "y"], vocab) for rid in (1, 2, 3)]
        plan = SelectionPlan(strategy="word-only", k=2, pool_size=3)
        result = select_single_coverage(test, pool, plan)
        actions = [s["action"] for s in result.steps]
        assert actions == ["commit", "restart", "commit"]
        assert result.selected == [1, 2]
        # Coverage after the restart equals the single candidate's own cover.
        assert result.steps[2]["coverage"] == pytest.approx(
            _naive_word_cov(test, [pool[1]]), rel=1e-12
        )

    def test_restart_divergence_flagged_when_other_score_live(self):
        # Syntax commit, word commit, then an unimprovable syntax step: the
        # restart wipes a live word score, which the diagnostics must flag.
        vocab = make_vocab(2)
        tree = make_tree([0, 1], [-1, 0])
        test = make_record(99, tree, ["x", "y", "z"], vocab)
        pool = [
            make_record(1, tree, ["x"], vocab),
            make_record(2, tree, ["y"], vocab),
            make_record(3, tree, ["x"], vocab),
            make_record(4, tree, ["x"], vocab),
        ]
        plan = SelectionPlan(strategy="scoi", k=3, pool_size=4)
        result = select_scoi(test, pool, plan)
        restarts = [s for s in result.steps if s["action"] == "restart"]
        assert restarts and restarts[0]["resets_other_score"] is True

    def test_pool_smaller_than_k_flags_and_fills(self):
        vocab = make_vocab(2)
        rng = random.Random(9)
        test = random_record(rng, 70, vocab, WORDS)
        pool = [random_record(rng, rid, vocab, WORDS) for rid in (4, 2)]
        plan = SelectionPlan(strategy="scoi", k=4, pool_size=4)
        result = select_scoi(test, pool, plan)
        assert result.flags.get("pool_exhausted") is True
        assert sorted(result.selected) == [2, 4]


class TestSingleCoverage:
    def test_word_only_picks_exact_token_copy_first(self):
        vocab = make_vocab(2)
        rng = random.Random(5)
        tree = make_tree([0, 1], [-1, 0])
        test = make_record(600, tree, ["p", "q", "r"], vocab)
        copy = make_record(10, tree, ["p", "q", "r"], vocab)
        others = [random_record(rng, rid, vocab, WORDS) for rid in (2, 30)]
        plan = SelectionPlan(strategy="word-only", k=1, pool_size=3)
        result = select_single_coverage(test, others + [copy], plan)
        assert result.selected == [10]

    def test_syntax_only_second_pick_maximizes_marginal_gain(self):
        vocab = make_vocab(4)
        rng = random.Random(8)
        test = random_record(rng, 800, vocab, WORDS)
        pool = random_pool(rng, 8, vocab, WORDS)
        plan = SelectionPlan(strategy="syntax-only", k=2, pool_size=8)
        result = select_single_coverage(test, pool, plan)
        oracle_ids, _ = algorithm1_oracle(test, pool, 2, single_mode="syntax")
        assert result.selected == oracle_ids

    @pytest.mark.parametrize("strategy,mode", [("syntax-only", "syntax"), ("word-only", "word")])
    def test_trace_matches_oracle(self, strategy, mode):
        vocab = make_vocab(3)
        rng = random.Random(77)
        for _ in range(60):
            test = random_record(rng, 7000, vocab, WORDS)
            pool = random_pool(rng, 12, vocab, WORDS)
            plan = SelectionPlan(strategy=strategy, k=3, pool_size=12)
            result = select_single_coverage(test, pool, plan)
            oracle_ids, oracle_trace = algorithm1_oracle(test, pool, 3, single_mode=mode)
            assert result.selected == oracle_ids
            assert traces_match(impl_trace(result), oracle_trace)

    def test_rejects_other_strategies(self):
        vocab = make_vocab(2)
        rng = random.Random(0)
        test = random_record(rng, 1, vocab, WORDS)
        with pytest.raises(ValueError):
            select_single_coverage(test, [], SelectionPlan(strategy="scoi", k=1, pool_size=1))


class TestEmptyTestTokens:
    """A test input with no tokens has no lexical coverage: a word step
    refuses it, where 0 / 0 would give nan and restart the loop forever."""

    def inputs(self):
        vocab = make_vocab(3)
        pool = random_pool(random.Random(4), 6, vocab, WORDS)
        return make_record(900, make_tree([0, 1, 2], [-1, 0, 0]), [], vocab), pool

    @pytest.mark.parametrize("strategy, order", [
        ("scoi", "syntax-first"), ("scoi", "word-first"), ("word-only", "syntax-first"),
    ])
    def test_word_step_rejects_an_empty_token_bag(self, strategy, order):
        test, pool = self.inputs()
        plan = SelectionPlan(strategy=strategy, k=3, order=order, pool_size=6)
        with pytest.raises(ValueError, match="^test token bag is empty$"):
            run_strategy(test, pool, plan)

    def test_syntax_steps_need_no_tokens(self):
        test, pool = self.inputs()
        for plan in (SelectionPlan(strategy="syntax-only", k=3, pool_size=6),
                     SelectionPlan(strategy="scoi", k=1, pool_size=6)):
            assert len(run_strategy(test, pool, plan).selected) == plan.k


class TestOrderVariants:
    def test_identical_rankings_give_identical_sets(self):
        # Nested candidates: bigger prefixes dominate in both coverages, so
        # both orders must land on the same set.
        vocab = make_vocab(3)
        labels = [0, 1, 2, 1]
        parents = [-1, 0, 1, 2]
        words = ["w1", "w2", "w3", "w4"]
        test = make_record(999, make_tree(labels, parents), words, vocab)
        pool = [
            make_record(3, make_tree(labels[:2], parents[:2]), words[:2], vocab),
            make_record(5, make_tree(labels[:3], parents[:3]), words[:3], vocab),
            make_record(8, make_tree(labels, parents), words, vocab),
        ]
        plan_sf = SelectionPlan(strategy="scoi", k=2, order="syntax-first", pool_size=3)
        plan_wf = SelectionPlan(strategy="scoi", k=2, order="word-first", pool_size=3)
        set_sf = set(select_scoi(test, pool, plan_sf).selected)
        set_wf = set(select_scoi(test, pool, plan_wf).selected)
        assert set_sf == set_wf

    def test_orders_swap_parity_roles(self):
        vocab = make_vocab(3)
        rng = random.Random(15)
        test = random_record(rng, 100, vocab, WORDS)
        pool = random_pool(rng, 10, vocab, WORDS)
        sf = select_scoi(test, pool, SelectionPlan(k=4, order="syntax-first", pool_size=10))
        wf = select_scoi(test, pool, SelectionPlan(k=4, order="word-first", pool_size=10))
        sf_modes = [s["mode"] for s in sf.steps if s["action"] == "commit"][:2]
        wf_modes = [s["mode"] for s in wf.steps if s["action"] == "commit"][:2]
        assert sf_modes[0] == "syntax" and wf_modes[0] == "word"


class TestDominatingCandidate:
    def test_all_coverage_strategies_pick_dominator_first(self):
        vocab = make_vocab(3)
        tree = make_tree([0, 1, 2, 1], [-1, 0, 0, 2])
        words = ["k1", "k2", "k3", "k4"]
        test = make_record(321, tree, words, vocab)
        dominator = make_record(50, tree, words, vocab)
        weak = [
            make_record(10, make_tree([0], [-1]), ["k1"], vocab),
            make_record(20, make_tree([0, 1], [-1, 0]), ["k2", "zz"], vocab),
        ]
        pool = weak + [dominator]
        for strategy in ("scoi", "syntax-only", "word-only"):
            plan = SelectionPlan(strategy=strategy, k=1, pool_size=3)
            if strategy == "scoi":
                result = select_scoi(test, pool, plan)
            else:
                result = select_single_coverage(test, pool, plan)
            assert result.selected[0] == 50, strategy


class TestTopKPoly:
    def test_identical_tree_ranks_first(self):
        vocab = make_vocab(3)
        rng = random.Random(2)
        tree = make_tree([0, 1, 2], [-1, 0, 1])
        test = make_record(700, tree, ["a"], vocab)
        twin = make_record(33, tree, ["b"], vocab)
        pool = [twin] + [random_record(rng, rid, vocab, WORDS) for rid in (5, 6)]
        plan = SelectionPlan(strategy="topk-poly", k=1, pool_size=3)
        result = select_topk_poly(test, pool, plan)
        assert result.selected == [33]
        assert result.steps[0]["distance"] == 0.0

    def test_ordering_matches_hand_distances(self):
        vocab = make_vocab(4)
        test = make_record(100, make_tree([0, 1], [-1, 0]), ["t"], vocab)
        cands = [
            make_record(1, make_tree([0, 1], [-1, 0]), ["a"], vocab),   # distance 0
            make_record(2, make_tree([0, 2], [-1, 0]), ["b"], vocab),   # one label swapped
            make_record(3, make_tree([3], [-1]), ["c"], vocab),         # different shape
        ]
        plan = SelectionPlan(strategy="topk-poly", k=3, pool_size=3)
        result = select_topk_poly(test, cands, plan)
        hand = sorted(
            (polynomial_distance(test.poly, c.poly), c.id) for c in cands
        )
        assert result.selected == [rid for _, rid in hand]
        assert result.steps[0]["distance"] == 0.0

    def test_equidistant_pool_takes_lowest_ids(self):
        vocab = make_vocab(2)
        tree = make_tree([0, 1], [-1, 0])
        test = make_record(0, tree, ["x"], vocab)
        pool = [make_record(rid, tree, ["y"], vocab) for rid in (9, 4, 7, 2)]
        plan = SelectionPlan(strategy="topk-poly", k=2, pool_size=4)
        result = select_topk_poly(test, pool, plan)
        assert result.selected == [2, 4]


def _dpp_setup(records, test, plan, params=Bm25Params()):
    """Rebuild the kernel exactly as select_dpp does, for oracle checks."""
    index = build_index(records)
    by_id = sorted(records, key=lambda r: r.id)
    rows = index.rows([r.id for r in by_id])
    column = intern_tokens(by_id)
    counts = token_table(column, column.name_ids(), rows, tuple(test.tokens.counts))
    wm = word_matrix(rows, counts, test.tokens, index, params)
    dists = np.array([polynomial_distance(test.poly, r.poly) for r in by_id])
    relevance = 1.0 / (1.0 + dists)
    kernel = dpp_kernel(wm, relevance, plan.dpp_lambda)
    return index, by_id, kernel


def _logdet(kernel, rows):
    sign, value = np.linalg.slogdet(kernel[np.ix_(rows, rows)])
    return value if sign > 0 else -np.inf


class TestDpp:
    def test_kernel_logdet_decomposes_into_relevance_plus_diversity(self):
        # The scaled kernel's log det on any subset must equal the subset's
        # relevance sum over lambda plus the plain diversity log det.
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            matrix = rng.random((n, 5))
            relevance = rng.random(n)
            lam = float(rng.uniform(0.2, 2.0))
            scaled = dpp_kernel(matrix, relevance, lam)
            unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
            plain = unit @ unit.T
            np.fill_diagonal(plain, 1.0)
            for k in (1, 2, 3):
                subset = sorted(rng.choice(n, size=k, replace=False).tolist())
                sign_s, logdet_s = np.linalg.slogdet(scaled[np.ix_(subset, subset)])
                sign_p, logdet_p = np.linalg.slogdet(plain[np.ix_(subset, subset)])
                if sign_p <= 0:
                    continue
                assert sign_s > 0
                expected = relevance[subset].sum() / lam + logdet_p
                assert logdet_s == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_duplicates_repel(self):
        vocab = make_vocab(2)
        tree = make_tree([0, 1], [-1, 0])
        test = make_record(900, tree, ["u", "v"], vocab)
        dup_a = make_record(1, tree, ["u", "v"], vocab)
        dup_b = make_record(2, tree, ["u", "v"], vocab)
        distinct = make_record(3, make_tree([0], [-1]), ["w", "v"], vocab)
        pool = [dup_a, dup_b, distinct]
        plan = SelectionPlan(strategy="dpp", k=2, pool_size=3)
        index = build_index(pool)
        result = select_dpp(test, pool, plan, index)
        assert set(result.selected) != {1, 2}

    def test_orthogonal_pool_matches_exhaustive_optimum(self):
        # Disjoint vocabularies make unit word vectors orthogonal, so the
        # optimum is simply the largest relevance sum.
        vocab = make_vocab(4)
        rng = random.Random(31)
        test_tokens = [f"q{i}" for i in range(6)]
        test = make_record(0, make_tree([0, 1, 2], [-1, 0, 1]), test_tokens, vocab)
        pool = [
            make_record(
                10 + i,
                make_tree([0] + [rng.randrange(4) for _ in range(i + 1)], [-1] + [0] * (i + 1)),
                [f"q{i}", f"only{i}"],
                vocab,
            )
            for i in range(6)
        ]
        plan = SelectionPlan(strategy="dpp", k=3, pool_size=6)
        index, by_id, kernel = _dpp_setup(pool, test, plan)
        result = select_dpp(test, pool, plan, index)
        rows = [next(i for i, r in enumerate(by_id) if r.id == rid) for rid in result.selected]
        achieved = _logdet(kernel, sorted(rows))
        best = max(
            _logdet(kernel, list(subset))
            for subset in itertools.combinations(range(len(by_id)), 3)
        )
        assert achieved == pytest.approx(best, rel=1e-9)

    def test_greedy_never_beats_exhaustive(self):
        vocab = make_vocab(3)
        rng = random.Random(44)
        for _ in range(60):
            test = random_record(rng, 4000, vocab, WORDS)
            pool = random_pool(rng, 8, vocab, WORDS)
            plan = SelectionPlan(strategy="dpp", k=3, pool_size=8)
            index, by_id, kernel = _dpp_setup(pool, test, plan)
            result = select_dpp(test, pool, plan, index)
            rows = sorted(
                next(i for i, r in enumerate(by_id) if r.id == rid) for rid in result.selected
            )
            achieved = _logdet(kernel, rows)
            best = max(
                _logdet(kernel, list(subset))
                for subset in itertools.combinations(range(len(by_id)), plan.k)
            )
            assert achieved <= best + 1e-9

    def test_singular_kernel_jitters_and_completes(self):
        vocab = make_vocab(2)
        tree = make_tree([0, 1], [-1, 0])
        test = make_record(900, tree, ["u", "v"], vocab)
        pool = [make_record(rid, tree, ["u", "v"], vocab) for rid in (1, 2, 3)]
        plan = SelectionPlan(strategy="dpp", k=3, pool_size=3)
        index = build_index(pool)
        result = select_dpp(test, pool, plan, index)
        assert result.flags.get("jitter") is True
        assert sorted(result.selected) == [1, 2, 3]

    def test_minmax_relevance_variant_runs(self):
        vocab = make_vocab(3)
        rng = random.Random(50)
        test = random_record(rng, 3000, vocab, WORDS)
        pool = random_pool(rng, 6, vocab, WORDS)
        plan = SelectionPlan(strategy="dpp", k=2, pool_size=6, relevance_norm="minmax")
        index = build_index(pool)
        result = select_dpp(test, pool, plan, index)
        assert len(result.selected) == 2


class TestRandomBaseline:
    def _corpus_ids(self, n=1000):
        return list(range(n))

    def test_same_seed_is_deterministic(self):
        vocab = make_vocab(2)
        rng = random.Random(0)
        test = random_record(rng, 42, vocab, WORDS)
        plan = SelectionPlan(strategy="random", k=4, pool_size=100, rng_seed=7)
        a = select_random(test, self._corpus_ids(), plan)
        b = select_random(test, self._corpus_ids(), plan)
        assert a.selected == b.selected

    @pytest.mark.parametrize("seeds", [(0, 1), (2, 3), (12345, 54321)])
    def test_different_seeds_differ(self, seeds):
        vocab = make_vocab(2)
        rng = random.Random(0)
        test = random_record(rng, 42, vocab, WORDS)
        s1, s2 = seeds
        a = select_random(test, self._corpus_ids(), SelectionPlan(strategy="random", k=4, pool_size=100, rng_seed=s1))
        b = select_random(test, self._corpus_ids(), SelectionPlan(strategy="random", k=4, pool_size=100, rng_seed=s2))
        assert a.selected != b.selected

    def test_k_equal_to_corpus_gives_permutation(self):
        vocab = make_vocab(2)
        rng = random.Random(0)
        test = random_record(rng, 1, vocab, WORDS)
        ids = [3, 1, 4, 5]
        plan = SelectionPlan(strategy="random", k=4, pool_size=4, rng_seed=0)
        result = select_random(test, ids, plan)
        assert sorted(result.selected) == sorted(ids)

    def test_corpus_smaller_than_k_rejected(self):
        vocab = make_vocab(2)
        rng = random.Random(0)
        test = random_record(rng, 1, vocab, WORDS)
        with pytest.raises(ValueError):
            select_random(test, [1, 2], SelectionPlan(strategy="random", k=4, pool_size=4))

    def test_distinct_tests_get_distinct_draws(self):
        vocab = make_vocab(2)
        rng = random.Random(0)
        t1 = random_record(rng, 1, vocab, WORDS)
        t2 = random_record(rng, 2, vocab, WORDS)
        plan = SelectionPlan(strategy="random", k=4, pool_size=100, rng_seed=0)
        assert select_random(t1, self._corpus_ids(), plan).selected != select_random(
            t2, self._corpus_ids(), plan
        ).selected


class TestCosineMeasure:
    def test_scoi_under_cosine_keeps_structural_invariants(self):
        vocab = make_vocab(3)
        rng = random.Random(404)
        for _ in range(40):
            test = random_record(rng, 8000, vocab, WORDS)
            pool = random_pool(rng, 12, vocab, WORDS)
            plan = SelectionPlan(strategy="scoi", k=4, measure="cosine", pool_size=12)
            result = select_scoi(test, pool, plan)
            assert len(set(result.selected)) == 4
            assert_committed_scores_increase(result)

    def test_exact_copy_still_wins_under_cosine(self):
        vocab = make_vocab(3)
        rng = random.Random(41)
        tree = make_tree([0, 1, 2], [-1, 0, 0])
        test = make_record(500, tree, ["m", "n", "o"], vocab)
        copy = make_record(6, tree, ["m", "n", "o"], vocab)
        others = [random_record(rng, rid, vocab, WORDS) for rid in (9, 12)]
        plan = SelectionPlan(strategy="scoi", k=1, measure="cosine", pool_size=3)
        result = select_scoi(test, others + [copy], plan)
        assert result.selected == [6]


class TestBm25Passthrough:
    def test_takes_rank_order_prefix(self):
        vocab = make_vocab(2)
        rng = random.Random(6)
        test = random_record(rng, 0, vocab, WORDS)
        pool = [random_record(rng, rid, vocab, WORDS) for rid in (30, 10, 20)]
        plan = SelectionPlan(strategy="bm25-passthrough", k=2, pool_size=3)
        result = select_bm25(test, pool, plan)
        assert result.selected == [30, 10]
