"""Tests for RankedTriang: completeness, order, no duplicates, constraints."""


import pytest

from repro.api import RankedStream
from repro.baselines.brute import (
    minimal_triangulations_bruteforce,
    minimal_triangulations_via_mis,
)
from repro.core.context import TriangulationContext
from repro.costs.classic import FillInCost, LexWidthFillCost, SumExpBagCost, WidthCost
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    paper_example_graph,
    path_graph,
)
from repro.graphs.graph import Graph
from repro.triangulation.minimality import is_minimal_triangulation
from tests.conftest import connected_random_graphs, fill_key


ALL_COSTS = [WidthCost(), FillInCost(), SumExpBagCost(2.0)]


class TestPaperExample:
    def test_exactly_two_results(self, session, paper_graph):
        results = list(session.stream(paper_graph, WidthCost()))
        assert len(results) == 2
        assert [r.cost for r in results] == [2.0, 3.0]
        assert [r.rank for r in results] == [0, 1]

    def test_fill_order(self, session, paper_graph):
        results = list(session.stream(paper_graph, FillInCost()))
        assert [r.cost for r in results] == [1.0, 3.0]


class TestCompleteness:
    def test_matches_bruteforce(self, session):
        for g in connected_random_graphs(7, 0.4, 10, seed_base=1000):
            expected = {fill_key(g, h) for h in minimal_triangulations_bruteforce(g)}
            for cost in ALL_COSTS:
                got = [
                    fill_key(g, r.triangulation.chordal_graph)
                    for r in session.stream(g, cost)
                ]
                assert len(got) == len(set(got)), f"duplicates under {cost.name}"
                assert set(got) == expected, cost.name

    def test_matches_mis_oracle_larger(self, session):
        for g in connected_random_graphs(9, 0.3, 4, seed_base=1100):
            expected = {fill_key(g, h) for h in minimal_triangulations_via_mis(g)}
            got = {
                fill_key(g, r.triangulation.chordal_graph)
                for r in session.stream(g, FillInCost())
            }
            assert got == expected

    def test_partition_loop_covers_all_answers(self, session):
        """Regression guard for the paper's `k-1` loop-bound typo.

        With the loop running only to k-1 the cycle C_5 (5 minimal
        triangulations) loses answers; through k it is complete.
        """
        g = cycle_graph(5)
        results = list(session.stream(g, FillInCost()))
        assert len(results) == 5
        g6 = cycle_graph(6)
        # Catalan-like count for C_6 triangulations by non-crossing chords.
        expected = {fill_key(g6, h) for h in minimal_triangulations_bruteforce(g6)}
        got = {
            fill_key(g6, r.triangulation.chordal_graph)
            for r in session.stream(g6, FillInCost())
        }
        assert got == expected

    def test_chordal_graph_single_result(self, session):
        g = path_graph(6)
        results = list(session.stream(g, WidthCost()))
        assert len(results) == 1
        assert results[0].triangulation.chordal_graph == g

    def test_complete_graph(self, session):
        results = list(session.stream(complete_graph(4), WidthCost()))
        assert len(results) == 1
        assert results[0].cost == 3


class TestOrdering:
    def test_nondecreasing_costs(self, session):
        for g in connected_random_graphs(8, 0.35, 6, seed_base=1200):
            for cost in ALL_COSTS:
                costs = [r.cost for r in session.stream(g, cost)]
                assert costs == sorted(costs), cost.name

    def test_first_is_global_optimum(self, session):
        from repro.core.mintriang import min_triangulation

        for g in connected_random_graphs(8, 0.35, 6, seed_base=1300):
            first = next(iter(session.stream(g, FillInCost())))
            assert first.cost == min_triangulation(g, FillInCost()).cost

    def test_lex_cost_orders_by_width_then_fill(self, session):
        g = paper_example_graph()
        results = list(session.stream(g, LexWidthFillCost(g)))
        pairs = [
            (r.triangulation.width, r.triangulation.fill_in()) for r in results
        ]
        assert pairs == sorted(pairs)


class TestResultsAreValid:
    def test_each_result_is_minimal_triangulation(self, session):
        for g in connected_random_graphs(8, 0.4, 4, seed_base=1400):
            for r in session.stream(g, WidthCost()):
                assert is_minimal_triangulation(g, r.triangulation.chordal_graph)

    def test_elapsed_is_monotone(self, session, paper_graph):
        results = list(session.stream(paper_graph, WidthCost()))
        times = [r.elapsed_seconds for r in results]
        assert times == sorted(times)

    def test_constraint_metadata_satisfied(self, session):
        """Every emitted result satisfies the partition it represents."""
        from repro.costs.constrained import satisfies_constraints

        for g in connected_random_graphs(7, 0.45, 4, seed_base=1500):
            for r in session.stream(g, FillInCost()):
                assert satisfies_constraints(
                    g, r.triangulation.bags, r.include, r.exclude
                )


class TestTopK:
    def test_top_k(self, session, paper_graph):
        top = session.top(paper_graph, WidthCost(), k=1).results
        assert len(top) == 1
        assert top[0].cost == 2

    def test_top_k_exhausts(self, session, paper_graph):
        top = session.top(paper_graph, WidthCost(), k=99).results
        assert len(top) == 2

    def test_islice_laziness(self, session):
        # Taking only the first result must not enumerate everything.
        g = erdos_renyi(12, 0.3, seed=5)
        if not g.is_connected():
            pytest.skip("sample disconnected")
        it = session.stream(g, WidthCost())
        first = next(it)
        assert first.rank == 0


class TestEdgesAndErrors:
    def test_empty_graph(self, session):
        assert list(session.stream(Graph(), WidthCost())) == []

    def test_disconnected_rejected(self, session):
        g = Graph(edges=[(1, 2), (3, 4)])
        with pytest.raises(ValueError):
            list(session.stream(g, WidthCost()))

    def test_shared_context(self, paper_graph):
        ctx = TriangulationContext.build(paper_graph)
        a = list(RankedStream.start(ctx, WidthCost()))
        b = list(RankedStream.start(ctx, FillInCost()))
        assert len(a) == len(b) == 2
