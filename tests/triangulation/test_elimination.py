"""Tests for elimination-game triangulations and greedy orders."""

from repro.graphs.chordal import is_chordal, is_perfect_elimination_order
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
)
from repro.triangulation.elimination import (
    elimination_game,
    min_degree_order,
    triangulate_min_degree,
    triangulate_min_fill,
)


class TestEliminationGame:
    def test_result_is_chordal(self):
        for seed in range(8):
            g = erdos_renyi(10, 0.3, seed=seed)
            order = list(g.vertices)
            h = elimination_game(g, order)
            assert is_chordal(h)
            assert is_perfect_elimination_order(h, order)

    def test_supergraph(self):
        g = grid_graph(3, 3)
        h = elimination_game(g, list(g.vertices))
        for u, v in g.edges():
            assert h.has_edge(u, v)

    def test_chordal_input_with_peo_unchanged(self):
        g = path_graph(5)
        h = elimination_game(g, [0, 1, 2, 3, 4])
        assert h == g


class TestGreedyOrders:
    def test_min_degree_covers_vertices(self):
        g = grid_graph(3, 3)
        order = min_degree_order(g)
        assert sorted(order, key=repr) == sorted(g.vertices, key=repr)

    def test_min_fill_on_cycle_is_optimal(self):
        # min-fill triangulates a cycle with n-3 chords (the optimum).
        g = cycle_graph(8)
        h = triangulate_min_fill(g)
        assert h.num_edges() - g.num_edges() == 5

    def test_min_degree_on_cycle_is_optimal(self):
        g = cycle_graph(8)
        h = triangulate_min_degree(g)
        assert h.num_edges() - g.num_edges() == 5

    def test_heuristics_produce_triangulations(self):
        for seed in range(6):
            g = erdos_renyi(10, 0.3, seed=seed)
            for h in (triangulate_min_fill(g), triangulate_min_degree(g)):
                assert is_chordal(h)
