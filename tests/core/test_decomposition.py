"""Tests for TreeDecomposition validation and properness."""

import pytest

from repro.core.decomposition import TreeDecomposition
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi,
    path_graph,
)
from repro.graphs.graph import Graph
from repro.triangulation.lb_triang import lb_triang


def paper_decompositions(g):
    """The five tree decompositions of Figure 1(c), hand-encoded."""
    w = ["w1", "w2", "w3"]
    t1 = TreeDecomposition(
        {0: {"u", *w}, 1: {"v", *w}, 2: {"v", "v'"}},
        [(0, 1), (1, 2)],
    )
    t2 = TreeDecomposition(
        {0: {"u", "v", "w1"}, 1: {"u", "v", "w2"}, 2: {"u", "v", "w3"}, 3: {"v", "v'"}},
        [(0, 1), (1, 2), (1, 3)],
    )
    # T1': T1 with w1 added to the bottom bag (strictly subsumed by T1)
    t1p = TreeDecomposition(
        {0: {"u", *w}, 1: {"v", *w}, 2: {"v", "v'", "w1"}},
        [(0, 1), (1, 2)],
    )
    # T2': bottom two bags of T2 merged
    t2p = TreeDecomposition(
        {0: {"u", "v", "w1"}, 1: {"u", "v", "w2", "w3"}, 2: {"v", "v'"}},
        [(0, 1), (1, 2)],
    )
    return t1, t2, t1p, t2p


class TestConstruction:
    def test_edge_count_enforced(self):
        with pytest.raises(ValueError):
            TreeDecomposition({0: {1}, 1: {2}}, [])
        with pytest.raises(ValueError):
            TreeDecomposition({0: {1}}, [(0, 0)])

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            TreeDecomposition({0: {1}}, [(0, 5)])

    def test_width(self):
        td = TreeDecomposition({0: {1, 2, 3}, 1: {3, 4}}, [(0, 1)])
        assert td.width == 2
        assert len(td) == 2


class TestValidity:
    def test_paper_decompositions_valid(self, paper_graph):
        for td in paper_decompositions(paper_graph):
            assert td.is_valid(paper_graph)

    def test_missing_vertex(self):
        g = path_graph(3)
        td = TreeDecomposition({0: {0, 1}}, [])
        assert not td.is_valid(g)

    def test_missing_edge(self):
        g = cycle_graph(3)
        td = TreeDecomposition({0: {0, 1}, 1: {1, 2}, 2: {2, 0}}, [(0, 1), (1, 2)])
        # all vertices/edges covered? edge (2,0) is in bag 2... but vertex 0
        # occurs in bags 0 and 2 which are not adjacent: junction fails.
        assert not td.is_valid(g)

    def test_junction_property_violation(self):
        g = path_graph(4)
        td = TreeDecomposition(
            {0: {0, 1}, 1: {2, 3}, 2: {1, 2}}, [(0, 1), (1, 2)]
        )
        assert not td.is_valid(g)  # vertex 2 occurs at nodes 1,2 not adjacent?
        # nodes 1 and 2 are adjacent; vertex 1 occurs at 0 and 2, path through 1
        # which lacks it.

    def test_cyclic_edges_rejected_by_validity(self):
        g = path_graph(3)
        td = TreeDecomposition(
            {0: {0, 1}, 1: {1, 2}, 2: {1}}, [(0, 1), (1, 2)]
        )
        assert td.is_valid(g)


class TestProperness:
    def test_figure1_properness(self, paper_graph):
        t1, t2, t1p, t2p = paper_decompositions(paper_graph)
        assert t1.is_proper(paper_graph)
        assert t2.is_proper(paper_graph)
        assert not t1p.is_proper(paper_graph)  # strictly subsumed by T1
        assert not t2p.is_proper(paper_graph)  # strictly subsumed by T2

    def test_clique_tree_check(self, paper_graph):
        t1, *_ = paper_decompositions(paper_graph)
        h1 = paper_graph.copy()
        h1.saturate({"w1", "w2", "w3"})
        assert t1.is_clique_tree(h1)
        assert not t1.is_clique_tree(paper_graph)


class TestFromBags:
    def test_from_triangulation(self):
        for seed in range(6):
            g = erdos_renyi(9, 0.3, seed=seed)
            h = lb_triang(g)
            td = TreeDecomposition.from_triangulation(h)
            assert td.is_valid(h)
            assert td.is_valid(g)
            if g.is_connected():
                assert td.is_proper(g)

    def test_single_bag(self):
        td = TreeDecomposition.from_bags([{1, 2, 3}])
        triangle = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        assert td.is_valid(triangle)
        assert td.is_proper(triangle)

    def test_disconnected_bags_stitched(self):
        g = Graph(edges=[(1, 2), (3, 4)])
        td = TreeDecomposition.from_bags([{1, 2}, {3, 4}])
        assert td.is_valid(g)
