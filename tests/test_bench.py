import json
import random

import pytest

from scoi.bench import (
    family_tree,
    fit_loglog_slope,
    random_tree,
    run_bench,
    simplified_op_counts,
)
from scoi.treepoly import original_polynomial, simplified_polynomial


class TestFamilyTree:
    @pytest.mark.parametrize("q,t", [(1, 2), (2, 2), (2, 5), (3, 4)])
    def test_node_count_formula(self, q, t):
        tree, _ = family_tree(q, t)
        p = 2 ** q
        assert tree.n == p * t + p - 1

    def test_q2_t2_has_eleven_nodes(self):
        tree, vocab = family_tree(2, 2)
        assert tree.n == 11
        poly = simplified_polynomial(tree, vocab)
        assert poly.n_terms == 11

    def test_layer_count(self):
        # Depth in nodes equals t + q: crown of q + 1 levels, chains add t - 1.
        tree, _ = family_tree(3, 5)
        depth = 0
        for node in range(tree.n):
            d, cur = 0, node
            while cur != -1:
                d += 1
                cur = tree.parents[cur]
            depth = max(depth, d)
        assert depth == 5 + 3

    def test_labels_all_distinct(self):
        tree, vocab = family_tree(2, 4)
        assert len(set(tree.labels)) == tree.n
        assert len(vocab) == tree.n


class TestOpCounts:
    def test_single_node(self):
        tree = random_tree(1, 1, random.Random(0))
        assert simplified_op_counts(tree) == (1, 0)

    def test_root_with_one_leaf(self):
        from conftest import make_tree

        tree = make_tree([0, 1], [-1, 0])
        # Leaf: 1 mult.  Root: 1 addition (child poly term), 2 mults.
        assert simplified_op_counts(tree) == (3, 1)

    def test_original_mult_count_on_family(self):
        # Chains multiply nothing; each crown-bottom node multiplies two
        # t-term polynomials; the root multiplies two (1 + t^2)-term ones.
        for t in (2, 4):
            tree, vocab = family_tree(2, t)
            poly = original_polynomial(tree, vocab)
            assert poly.multiplications == 2 * t * t + (1 + t * t) ** 2
            assert poly.n_terms == 1 + (1 + t * t) ** 2


class TestSlopeFit:
    def test_recovers_cubic(self):
        sizes = [10, 20, 40, 80]
        values = [s ** 3 for s in sizes]
        assert fit_loglog_slope(sizes, values) == pytest.approx(3.0, abs=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([10], [100])


class TestRunBench:
    def test_small_run_structure(self):
        report = run_bench(qs=(2,), ts=(2, 4), budget=10_000)
        assert len(report.rows) == 2
        assert all(row.simplified_terms == row.nodes for row in report.rows)
        assert "q=2" in report.slopes
        payload = json.loads(report.to_json())
        assert payload["budget"] == 10_000
        assert report.to_table().strip()

    def test_budget_exceeded_is_recorded_not_fatal(self):
        report = run_bench(qs=(3,), ts=(2, 8), budget=2_000)
        by_t = {row.t: row for row in report.rows}
        assert by_t[8].original_status == "budget-exceeded"
        assert by_t[8].blowup_node is not None
        assert by_t[2].original_status == "ok"

    def test_single_chain_length_reports_no_slope(self):
        report = run_bench(qs=(1,), ts=(2,), budget=10_000)
        assert report.slopes == {
            "q=1": {"original_mults_slope": None, "simplified_work_slope": None}
        }
        assert "simplified_work_slope=n/a" in report.to_table()
