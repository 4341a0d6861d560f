"""Tests for the potential-maximal-clique predicate and PMC-local structure."""

from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
)
from repro.graphs.graph import Graph
from repro.pmc.predicate import blocks_of_pmc, is_pmc, minseps_of_pmc
from repro.separators.berry import is_minimal_separator


class TestIsPmc:
    def test_paper_example_pmcs(self, paper_graph):
        # Example 5.2 names two PMCs explicitly.
        assert is_pmc(paper_graph, {"u", "w1", "w2", "w3"})
        assert is_pmc(paper_graph, {"w1", "u", "v"})
        # A minimal separator is never a PMC (its full components violate
        # condition 1).
        assert not is_pmc(paper_graph, {"u", "v"})
        assert not is_pmc(paper_graph, {"w1", "w2", "w3"})

    def test_whole_vertex_set(self):
        # V(G) is a PMC iff G is complete.
        assert is_pmc(complete_graph(4), range(4))
        assert not is_pmc(path_graph(3), range(3))

    def test_empty_not_pmc(self):
        assert not is_pmc(path_graph(3), set())

    def test_singleton(self):
        g = Graph(vertices=[1])
        assert is_pmc(g, {1})
        # A leaf of a path is not a PMC (its neighbor's component is full).
        assert not is_pmc(path_graph(3), {0})

    def test_edges_of_chordal_graph(self):
        # For a chordal graph, PMCs = maximal cliques.
        g = path_graph(4)
        assert is_pmc(g, {1, 2})
        assert not is_pmc(g, {1, 3})

    def test_triangle_in_cycle(self):
        g = cycle_graph(6)
        assert is_pmc(g, {0, 2, 4})
        assert is_pmc(g, {0, 1, 2})  # consecutive triple: N({3,4,5}) covers {0,2}
        assert is_pmc(g, {0, 1, 3})  # covered by N({2}) = {1,3}, N({4,5}) = {0,3}
        # {0,1,2,3}: the pair (0,2) is non-adjacent and no component
        # neighborhood contains both — not completable.
        assert not is_pmc(g, {0, 1, 2, 3})
        # A minimal separator has full components — never a PMC.
        assert not is_pmc(g, {0, 2})


class TestAssociatedStructure:
    def test_minseps_of_pmc(self, paper_graph):
        # Example 5.2: MinSep(Ω) = {S2, S3} for Ω = {w1, u, v}.
        omega = {"w1", "u", "v"}
        assert minseps_of_pmc(paper_graph, omega) == {
            frozenset({"u", "v"}),
            frozenset({"v"}),
        }

    def test_associated_separators_are_minimal(self):
        for seed in range(12):
            g = erdos_renyi(8, 0.35, seed=seed)
            from repro.pmc.oracle import potential_maximal_cliques_bruteforce

            for omega in potential_maximal_cliques_bruteforce(g):
                for s in minseps_of_pmc(g, omega):
                    assert is_minimal_separator(g, s)
                    assert s < omega

    def test_blocks_of_pmc_are_full(self, paper_graph):
        omega = {"w1", "u", "v"}
        for block in blocks_of_pmc(paper_graph, omega):
            assert block.is_full(paper_graph)

    def test_blocks_partition_outside(self, paper_graph):
        omega = frozenset({"u", "w1", "w2", "w3"})
        blocks = blocks_of_pmc(paper_graph, omega)
        union = set()
        for b in blocks:
            union |= b.component
        assert union == paper_graph.vertex_set() - omega
