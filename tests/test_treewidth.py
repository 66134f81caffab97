import random

import pytest

from corpus import random_graph, random_tree
from oracles import oracle_treewidth
from twinwidth.graphs import complete_graph, cycle_graph, graph_from_edges, grid_graph, path_graph
from twinwidth.treewidth import (
    BudgetExceeded,
    TreeDecomposition,
    decomposition_from_order,
    min_fill_order,
    minor_min_width,
    treewidth_decide,
    treewidth_exact,
    treewidth_order,
    verify_tree_decomposition,
)


class TestExact:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_cliques(self, n):
        assert treewidth_exact(complete_graph(n)).width == n - 1

    def test_trees_are_width_one(self):
        rng = random.Random(4)
        for _ in range(10):
            g = random_tree(rng, rng.randint(2, 14))
            assert treewidth_exact(g).width == 1

    def test_grids(self):
        assert treewidth_exact(grid_graph(3)).width == 3
        assert treewidth_exact(grid_graph(4)).width == 4

    def test_cycle(self):
        assert treewidth_exact(cycle_graph(8)).width == 2

    def test_family_lower_bound(self):
        from twinwidth.structure import gen_tww3_family

        for n in (2, 3):
            g, _ = gen_tww3_family(n)
            assert treewidth_exact(g).width >= n

    def test_oracle_agreement_sample(self):
        rng = random.Random(19)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8))
            r = treewidth_exact(g)
            assert r.width == oracle_treewidth(g)

    def test_every_decomposition_verifies(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 9))
            r = treewidth_exact(g)
            report = verify_tree_decomposition(g, r.decomposition)
            assert report.valid and report.width == r.width

    def test_budget_reports_unknown_with_bounds(self):
        g = grid_graph(5)
        r = treewidth_exact(g, budget=5)
        assert r.status == "unknown"
        assert r.lb <= 5 <= r.ub


class TestDecide:
    def test_grid5_gate(self):
        assert treewidth_decide(grid_graph(5), 3) is False
        assert treewidth_decide(grid_graph(5), 5) is True

    def test_budget_raises(self):
        with pytest.raises(BudgetExceeded):
            treewidth_decide(grid_graph(5), 4, budget=3)

    def test_order_is_a_certificate(self):
        g = grid_graph(4)  # tree-width 4
        order = treewidth_order(g, 4)
        assert verify_tree_decomposition(g, decomposition_from_order(g, order)).width <= 4
        assert treewidth_order(g, 3) is None

    def test_matches_exact(self):
        rng = random.Random(29)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8))
            w = treewidth_exact(g).width
            assert treewidth_decide(g, w) is True
            if w > 0:
                assert treewidth_decide(g, w - 1) is False


class TestVerifier:
    def test_reports_missing_vertex(self):
        g = path_graph(3)
        td = TreeDecomposition(((0, frozenset({0, 1})),), ())
        report = verify_tree_decomposition(g, td)
        assert not report.valid and "in no bag" in report.violation

    def test_reports_uncovered_edge(self):
        g = path_graph(3)
        td = TreeDecomposition(((0, frozenset({0, 1})), (1, frozenset({2}))), ((0, 1),))
        report = verify_tree_decomposition(g, td)
        assert not report.valid and "edge (1,2)" in report.violation

    def test_reports_disconnected_occurrence(self):
        g = path_graph(3)
        td = TreeDecomposition(
            ((0, frozenset({0, 1})), (1, frozenset({1, 2})), (2, frozenset({0}))),
            ((0, 1), (1, 2)),
        )
        report = verify_tree_decomposition(g, td)
        assert not report.valid and "not connected" in report.violation

    def test_reports_non_tree(self):
        g = path_graph(2)
        td = TreeDecomposition(((0, frozenset({0, 1})), (1, frozenset({0, 1}))), ())
        assert not verify_tree_decomposition(g, td).valid

    def test_accepts_valid(self):
        g = cycle_graph(5)
        r = treewidth_exact(g)
        assert verify_tree_decomposition(g, r.decomposition).valid


class TestHelpers:
    def test_min_fill_is_an_upper_bound(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 9))
            order, ub = min_fill_order(g)
            td = decomposition_from_order(g, order)
            assert td.width <= ub
            assert verify_tree_decomposition(g, td).valid
            assert ub >= treewidth_exact(g).width

    def test_minor_min_width_is_a_lower_bound(self):
        rng = random.Random(37)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 9))
            assert minor_min_width(g) <= treewidth_exact(g).width

    def test_isolated_vertices(self):
        g = graph_from_edges(4, [(0, 1)])
        r = treewidth_exact(g)
        assert r.width == 1
        assert verify_tree_decomposition(g, r.decomposition).valid
