"""Tests for ranked proper-tree-decomposition enumeration (Prop. 6.1)."""

import itertools

import pytest

from repro.costs.classic import FillInCost, WidthCost
from repro.graphs.generators import cycle_graph
from tests.conftest import connected_random_graphs


class TestRankedDecompositions:
    def test_costs_nondecreasing(self, session, paper_graph):
        results = list(session.decomposition_stream(paper_graph, WidthCost()))
        costs = [r.cost for r in results]
        assert costs == sorted(costs)
        assert [r.rank for r in results] == list(range(len(results)))

    def test_all_proper_and_valid(self, session):
        for g in connected_random_graphs(7, 0.4, 3, seed_base=1800):
            for r in itertools.islice(
                session.decomposition_stream(g, FillInCost()), 15
            ):
                assert r.decomposition.is_valid(g)
                assert r.decomposition.is_proper(g)

    def test_decomposition_matches_triangulation(self, session, paper_graph):
        for r in session.decomposition_stream(paper_graph, WidthCost()):
            assert r.decomposition.bag_set() == r.triangulation.bags

    def test_per_triangulation_cap(self, session, paper_graph):
        capped = list(
            session.decomposition_stream(paper_graph, WidthCost(), per_triangulation=1)
        )
        # exactly one decomposition per minimal triangulation
        assert len(capped) == 2
        for cap in (-1, 0):
            with pytest.raises(
                ValueError, match=f"per_triangulation must be >= 1, got {cap}"
            ):
                session.decomposition_stream(paper_graph, WidthCost(), per_triangulation=cap)

    def test_expansion_multiplicity(self, session):
        # A star is chordal (one minimal triangulation — itself) but has
        # several clique trees; the stream must expand all of them.
        from repro.graphs.generators import star_graph

        g = star_graph(3)
        tds = list(session.decomposition_stream(g, FillInCost()))
        distinct_triangulations = {r.triangulation.bags for r in tds}
        assert len(distinct_triangulations) == 1
        assert len(tds) == 3  # labeled trees on the 3 edge-cliques

    def test_unique_clique_trees_on_cycle(self, session):
        # Every minimal triangulation of C_6 has exactly one clique tree,
        # so decomposition count equals triangulation count (Catalan(4)).
        g = cycle_graph(6)
        tds = list(itertools.islice(session.decomposition_stream(g, FillInCost()), 40))
        assert len(tds) == 14
        assert len({r.triangulation.bags for r in tds}) == 14

    def test_top_k(self, session, paper_graph):
        top = session.decompositions(paper_graph, WidthCost(), k=3).results
        assert len(top) == 3
        assert top[0].cost <= top[-1].cost
