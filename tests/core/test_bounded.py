"""Tests for the bounded-width variant (MinTriangB / Theorem 4.5)."""


from repro.costs.classic import FillInCost, WidthCost
from repro.graphs.generators import complete_graph, cycle_graph, grid_graph
from tests.conftest import connected_random_graphs, fill_key


class TestBoundedEnumeration:
    def test_equals_filtered_full_enumeration(self, session):
        for g in connected_random_graphs(7, 0.45, 6, seed_base=1600):
            full = list(session.stream(g, FillInCost()))
            for bound in (2, 3, 4):
                expected = {
                    fill_key(g, r.triangulation.chordal_graph)
                    for r in full
                    if r.triangulation.width <= bound
                }
                got = {
                    fill_key(g, r.triangulation.chordal_graph)
                    for r in session.stream(
                        g, FillInCost(), width_bound=bound
                    )
                }
                assert got == expected, (bound,)

    def test_all_results_within_bound(self, session):
        g = grid_graph(3, 3)
        for r in session.stream(g, FillInCost(), width_bound=3):
            assert r.triangulation.width <= 3

    def test_order_preserved(self, session):
        for g in connected_random_graphs(7, 0.5, 4, seed_base=1700):
            costs = [
                r.cost
                for r in session.stream(g, FillInCost(), width_bound=3)
            ]
            assert costs == sorted(costs)

    def test_infeasible_bound_yields_nothing(self, session):
        g = complete_graph(5)
        assert list(session.stream(g, WidthCost(), width_bound=2)) == []

    def test_exact_bound_on_cycle(self, session):
        # Every minimal triangulation of a cycle has width exactly 2,
        # so bound 2 changes nothing and bound 1 is infeasible.
        g = cycle_graph(6)
        full = list(session.stream(g, FillInCost()))
        bounded = list(session.stream(g, FillInCost(), width_bound=2))
        assert len(full) == len(bounded)
        assert list(session.stream(g, FillInCost(), width_bound=1)) == []
