"""Tests for MinTriang: optimal minimal triangulation via the block DP."""

import pytest

from repro.baselines.brute import minimal_triangulations_bruteforce
from repro.core.context import TriangulationContext
from repro.core.mintriang import (
    Triangulation,
    min_triangulation,
    min_triangulation_with_context,
)
from repro.costs.classic import FillInCost, LexWidthFillCost, SumExpBagCost, WidthCost
from repro.graphs.chordal import fill_in, maximal_cliques_chordal, treewidth_chordal
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    tree_graph,
)
from repro.graphs.graph import Graph
from repro.triangulation.minimality import is_minimal_triangulation
from tests.conftest import connected_random_graphs


class TestOptimality:
    def test_width_matches_bruteforce(self):
        for g in connected_random_graphs(7, 0.4, 10, seed_base=300):
            result = min_triangulation(g, WidthCost())
            expected = min(
                treewidth_chordal(h) for h in minimal_triangulations_bruteforce(g)
            )
            assert result.cost == expected
            assert result.width == expected

    def test_fill_matches_bruteforce(self):
        for g in connected_random_graphs(7, 0.4, 10, seed_base=400):
            result = min_triangulation(g, FillInCost())
            expected = min(
                fill_in(g, h) for h in minimal_triangulations_bruteforce(g)
            )
            assert result.cost == expected
            assert result.fill_in() == expected

    def test_result_is_minimal_triangulation(self):
        for g in connected_random_graphs(9, 0.3, 6, seed_base=500):
            for cost in (WidthCost(), FillInCost(), SumExpBagCost()):
                result = min_triangulation(g, cost)
                assert is_minimal_triangulation(g, result.chordal_graph), cost.name

    def test_bags_are_maximal_cliques(self):
        for g in connected_random_graphs(8, 0.35, 6, seed_base=600):
            result = min_triangulation(g, FillInCost())
            assert result.bags == maximal_cliques_chordal(result.chordal_graph)

    def test_sum_exp_matches_bruteforce(self):
        for g in connected_random_graphs(7, 0.4, 6, seed_base=700):
            result = min_triangulation(g, SumExpBagCost(2.0))
            expected = min(
                sum(2.0 ** len(b) for b in maximal_cliques_chordal(h))
                for h in minimal_triangulations_bruteforce(g)
            )
            assert result.cost == pytest.approx(expected)

    def test_lex_cost_minimizes_width_first(self):
        for g in connected_random_graphs(7, 0.45, 6, seed_base=800):
            lex = min_triangulation(g, LexWidthFillCost(g))
            wopt = min_triangulation(g, WidthCost())
            assert lex.width == wopt.width


class TestKnownGraphs:
    def test_paper_example_width(self, paper_graph):
        result = min_triangulation(paper_graph, WidthCost())
        assert result.cost == 2  # H2 of Figure 1(b)

    def test_paper_example_fill(self, paper_graph):
        result = min_triangulation(paper_graph, FillInCost())
        assert result.cost == 1  # saturate {u, v}

    def test_cycle(self):
        g = cycle_graph(8)
        assert min_triangulation(g, WidthCost()).cost == 2
        assert min_triangulation(g, FillInCost()).cost == 5  # n - 3

    def test_grid_3x3_treewidth(self):
        assert min_triangulation(grid_graph(3, 3), WidthCost()).cost == 3

    def test_grid_2xk_treewidth(self):
        assert min_triangulation(grid_graph(2, 5), WidthCost()).cost == 2

    def test_chordal_graphs_zero_fill(self):
        for g in (path_graph(6), complete_graph(5), tree_graph(9, seed=1)):
            result = min_triangulation(g, FillInCost())
            assert result.cost == 0
            assert result.chordal_graph == g

    def test_empty_and_tiny(self):
        assert min_triangulation(Graph(), WidthCost()).bags == frozenset()
        single = Graph(vertices=[7])
        assert min_triangulation(single, WidthCost()).bags == {frozenset({7})}


class TestDisconnected:
    def test_componentwise(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
        result = min_triangulation(g, FillInCost())
        assert result.cost == 1  # only the 4-cycle needs one chord
        assert is_minimal_triangulation(g, result.chordal_graph)

    def test_isolated_vertices(self):
        g = Graph(vertices=[1, 2, 3])
        result = min_triangulation(g, WidthCost())
        assert result.bags == {frozenset({1}), frozenset({2}), frozenset({3})}


class TestContextReuse:
    def test_same_context_multiple_costs(self, paper_graph):
        ctx = TriangulationContext.build(paper_graph)
        w = min_triangulation_with_context(ctx, WidthCost())
        f = min_triangulation_with_context(ctx, FillInCost())
        assert w.cost == 2 and f.cost == 1

    def test_width_bound_feasible(self):
        g = cycle_graph(6)
        result = min_triangulation(g, FillInCost(), width_bound=2)
        assert result is not None
        assert result.width <= 2

    def test_width_bound_infeasible(self):
        g = complete_graph(5)  # treewidth 4
        assert min_triangulation(g, WidthCost(), width_bound=2) is None

    def test_width_bound_matches_filtered_optimum(self):
        for g in connected_random_graphs(7, 0.5, 6, seed_base=900):
            unbounded = min_triangulation(g, FillInCost())
            b = int(unbounded.width)
            bounded = min_triangulation(g, FillInCost(), width_bound=b)
            assert bounded is not None
            assert bounded.cost == unbounded.cost or bounded.width <= b


class TestTriangulationObject:
    def test_minimal_separators_property(self, paper_graph):
        result = min_triangulation(paper_graph, FillInCost())
        assert result.minimal_separators == {
            frozenset({"u", "v"}),
            frozenset({"v"}),
        }

    def test_minimal_separators_match_clique_tree_adhesions(self):
        # Every clique tree has the same adhesions: the Prim pass must
        # agree with the canonical Kruskal clique tree, also when the
        # graph has several components.
        from repro.graphs.cliquetree import minimal_separators_chordal
        from repro.triangulation.lb_triang import lb_triang

        two_parts = Graph(
            vertices=range(7),
            edges=[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)],
        )
        graphs = connected_random_graphs(10, 0.3, 12, seed_base=900)
        for g in [*graphs, two_parts, path_graph(1)]:
            h = lb_triang(g)
            bags = frozenset(maximal_cliques_chordal(h))
            triangulation = Triangulation(g, bags, 0.0)
            assert triangulation.minimal_separators == frozenset(
                minimal_separators_chordal(h)
            )

    def test_len_is_bag_count(self, paper_graph):
        result = min_triangulation(paper_graph, FillInCost())
        assert len(result) == len(result.bags) == 4
