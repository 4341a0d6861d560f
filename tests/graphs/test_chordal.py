"""Tests for MCS, perfect elimination orders, chordality, maximal cliques."""

import pytest

from repro.graphs.chordal import (
    fill_in,
    is_chordal,
    is_perfect_elimination_order,
    maximal_cliques_chordal,
    maximum_cardinality_search,
    perfect_elimination_order,
    treewidth_chordal,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from repro.graphs.graph import Graph


def brute_force_chordal(graph: Graph) -> bool:
    """Chordality by explicit chordless-cycle search (DFS over paths)."""
    vertices = list(graph.vertices)

    def has_chordless_cycle_through(start) -> bool:
        # Search for a cycle of length >= 4 through `start` with no chord.
        def extend(path: list) -> bool:
            last = path[-1]
            for nxt in graph.adj(last):
                if nxt == start and len(path) >= 4:
                    # check chordlessness of the cycle `path`
                    ok = True
                    k = len(path)
                    for i in range(k):
                        for j in range(i + 2, k):
                            if i == 0 and j == k - 1:
                                continue
                            if graph.has_edge(path[i], path[j]):
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        return True
                if nxt in path:
                    continue
                # prune: a chord to an earlier path vertex (other than the
                # predecessor) makes every extension chorded through `nxt`
                if any(
                    graph.has_edge(nxt, p) for p in path[:-1] if p != start
                ):
                    continue
                if extend(path + [nxt]):
                    return True
            return False

        return extend([start])

    return not any(has_chordless_cycle_through(v) for v in vertices)


class TestMCS:
    def test_orders_all_vertices(self):
        g = grid_graph(3, 3)
        order = maximum_cardinality_search(g)
        assert sorted(order, key=repr) == sorted(g.vertices, key=repr)

    def test_start_vertex_first(self):
        g = path_graph(5)
        assert maximum_cardinality_search(g, start=3)[0] == 3

    def test_empty_graph(self):
        assert maximum_cardinality_search(Graph()) == []

    def test_disconnected(self):
        g = Graph(edges=[(1, 2), (3, 4)])
        assert len(maximum_cardinality_search(g)) == 4

    def test_unknown_start_vertex_raises(self):
        with pytest.raises(KeyError):
            maximum_cardinality_search(path_graph(5), start=99)

    def test_second_vertex_is_a_neighbour(self):
        # After the start vertex, only its neighbours carry weight, so on
        # a connected graph the second visited vertex is adjacent to it.
        for g, start in ((path_graph(6), 3), (grid_graph(3, 4), (1, 1))):
            order = maximum_cardinality_search(g, start=start)
            assert order[1] in g.adj(start)


class TestPEO:
    def test_path_is_chordal(self):
        assert perfect_elimination_order(path_graph(6)) is not None

    def test_cycle_not_chordal(self):
        assert perfect_elimination_order(cycle_graph(4)) is None

    def test_chordal_yields_a_valid_order(self):
        for g in (path_graph(6), complete_graph(5), tree_graph(9, seed=1)):
            peo = perfect_elimination_order(g)
            assert peo is not None
            assert is_perfect_elimination_order(g, peo)

    def test_non_chordal_yields_none(self):
        assert perfect_elimination_order(cycle_graph(5)) is None
        assert perfect_elimination_order(grid_graph(3, 3)) is None

    def test_explicit_order_check(self):
        # Triangle with a pendant: eliminating the pendant first is perfect.
        g = Graph(edges=[(1, 2), (2, 3), (1, 3), (3, 4)])
        assert is_perfect_elimination_order(g, [4, 1, 2, 3])
        # Eliminating 3 first leaves 1-2-4 needing the chord 1-4: not PEO
        # unless 1,2,4 pairwise adjacent, which they are not (4 only sees 3).
        assert not is_perfect_elimination_order(g, [3, 4, 1, 2])

    def test_order_must_cover_vertices(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            is_perfect_elimination_order(g, [0, 1])


class TestIsChordal:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(1), True),
            (path_graph(7), True),
            (complete_graph(5), True),
            (star_graph(4), True),
            (cycle_graph(3), True),
            (cycle_graph(4), False),
            (cycle_graph(6), False),
            (grid_graph(2, 2), False),
            (grid_graph(3, 3), False),
            (tree_graph(9, seed=0), True),
        ],
    )
    def test_known_graphs(self, graph, expected):
        assert is_chordal(graph) == expected

    def test_against_bruteforce_on_random(self):
        for seed in range(40):
            g = erdos_renyi(7, 0.45, seed=seed)
            assert is_chordal(g) == brute_force_chordal(g), f"seed={seed}"

    def test_against_networkx_on_random(self):
        import networkx as nx

        for seed in range(60):
            g = erdos_renyi(9, 0.45, seed=seed)
            assert is_chordal(g) == nx.is_chordal(g.to_networkx()), f"seed={seed}"


class TestMaximalCliques:
    def test_complete(self):
        g = complete_graph(4)
        assert maximal_cliques_chordal(g) == {frozenset(range(4))}

    def test_path(self):
        g = path_graph(4)
        assert maximal_cliques_chordal(g) == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }

    def test_nonchordal_raises(self):
        with pytest.raises(ValueError):
            maximal_cliques_chordal(cycle_graph(5))

    def test_count_bound(self):
        # Theorem 2.2(2): a chordal graph has < |V| maximal cliques
        # (<= |V| including the single-vertex case).
        for seed in range(20):
            g = erdos_renyi(9, 0.5, seed=seed)
            if not is_chordal(g):
                continue
            assert len(maximal_cliques_chordal(g)) <= g.num_vertices()

    def test_against_networkx(self):
        import networkx as nx

        for seed in range(30):
            g = erdos_renyi(9, 0.55, seed=seed)
            if not is_chordal(g):
                continue
            ours = maximal_cliques_chordal(g)
            theirs = {frozenset(c) for c in nx.find_cliques(g.to_networkx())}
            assert ours == theirs, f"seed={seed}"

    def test_singleton_graph(self):
        g = Graph(vertices=[42])
        assert maximal_cliques_chordal(g) == {frozenset({42})}


class TestMeasures:
    def test_treewidth_chordal(self):
        assert treewidth_chordal(path_graph(5)) == 1
        assert treewidth_chordal(complete_graph(6)) == 5
        assert treewidth_chordal(Graph()) == -1

    def test_fill_in(self):
        g = cycle_graph(4)
        h = g.copy()
        h.add_edge(0, 2)
        assert fill_in(g, h) == 1
