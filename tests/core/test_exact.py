"""Tests for the exact-measure facade (treewidth, minimum fill-in)."""

import pytest

from repro.core.exact import (
    minimum_fill_in,
    treewidth,
    weighted_minimum_fill_in,
    weighted_treewidth,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    hypercube_graph,
    mycielski_graph,
    path_graph,
    petersen_graph,
    tree_graph,
)
from repro.graphs.graph import Graph


def path_with_embedded_k4() -> Graph:
    g = path_graph(6)
    g.saturate([0, 1, 2, 3])
    return g


#: Graphs whose treewidth must sit between networkx's lower and upper
#: bounds: the structured families and sparse random graphs.
BOUNDS_CORPUS = [
    ("path-6", path_graph(6)),
    ("cycle-6", cycle_graph(6)),
    ("cycle-8", cycle_graph(8)),
    ("grid-3x3", grid_graph(3, 3)),
    ("grid-4x4", grid_graph(4, 4)),
    ("petersen", petersen_graph()),
    ("complete-5", complete_graph(5)),
    ("path-with-k4", path_with_embedded_k4()),
] + [(f"er-10-{seed}", erdos_renyi(10, 0.3, seed=seed)) for seed in range(8)]


class TestTreewidth:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (Graph(), -1),
            (Graph(vertices=[1]), 0),
            (path_graph(7), 1),
            (tree_graph(10, seed=2), 1),
            (cycle_graph(9), 2),
            (complete_graph(6), 5),
            (grid_graph(3, 3), 3),
            (grid_graph(4, 4), 4),
            (petersen_graph(), 4),
            (hypercube_graph(3), 3),
            (mycielski_graph(4), 5),
        ],
    )
    def test_known_values(self, graph, expected):
        assert treewidth(graph) == expected

    def test_disconnected_max_over_components(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (3, 4)])
        assert treewidth(g) == 2

    def test_against_networkx_heuristic_lower(self):
        # networkx's min-degree heuristic is an upper bound on treewidth.
        import networkx as nx
        from networkx.algorithms.approximation import treewidth_min_degree

        for seed in range(6):
            g = erdos_renyi(11, 0.3, seed=seed)
            ub, _ = treewidth_min_degree(g.to_networkx())
            assert treewidth(g) <= ub

    @pytest.mark.parametrize(
        "graph", [g for _, g in BOUNDS_CORPUS], ids=[name for name, _ in BOUNDS_CORPUS]
    )
    def test_between_networkx_bounds(self, graph):
        # Degeneracy and clique number minus one bound treewidth from
        # below; the min-degree and min-fill heuristics bound it from above.
        import networkx as nx
        from networkx.algorithms.approximation import (
            treewidth_min_degree,
            treewidth_min_fill_in,
        )

        nx_graph = graph.to_networkx()
        degeneracy = max(nx.core_number(nx_graph).values())
        clique = max(len(c) for c in nx.find_cliques(nx_graph)) - 1
        upper = min(
            treewidth_min_degree(nx_graph)[0], treewidth_min_fill_in(nx_graph)[0]
        )
        assert max(degeneracy, clique) <= treewidth(graph) <= upper


class TestMinimumFillIn:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(5), 0),
            (cycle_graph(4), 1),
            (cycle_graph(8), 5),
            (complete_graph(5), 0),
            (grid_graph(2, 3), 2),
        ],
    )
    def test_known_values(self, graph, expected):
        assert minimum_fill_in(graph) == expected

    def test_chordal_is_zero(self):
        assert minimum_fill_in(tree_graph(12, seed=4)) == 0


class TestWeightedVariants:
    def test_weighted_treewidth_with_cardinality(self):
        g = cycle_graph(6)
        value, tri = weighted_treewidth(g, lambda bag: float(len(bag)))
        assert value == 3.0  # bags of size 3
        assert tri.width == 2

    def test_weighted_fill_uniform(self):
        g = cycle_graph(6)
        value, tri = weighted_minimum_fill_in(g, lambda u, v: 1.0)
        assert value == 3.0  # n - 3 chords
        assert tri.fill_in() == 3

    def test_weighted_fill_steers_choice(self):
        # C4 has two minimal triangulations (chord {0,2} or {1,3});
        # pricing one chord higher forces the other.
        g = cycle_graph(4)

        def price(u, v):
            return 100.0 if frozenset((u, v)) == frozenset({0, 2}) else 1.0

        value, tri = weighted_minimum_fill_in(g, price)
        assert value == 1.0
        assert tri.chordal_graph.has_edge(1, 3)
