"""Tests for the Parra–Scheffler saturation bridge."""

import pytest

from repro.graphs.cliquetree import minimal_separators_chordal
from repro.graphs.generators import cycle_graph, erdos_renyi
from repro.graphs.graph import Graph
from repro.separators.berry import minimal_separators
from repro.separators.crossing import SeparatorFamily
from repro.triangulation.minimality import is_minimal_triangulation
from repro.triangulation.saturate import saturate_bags, saturate_separators


def maximal_parallel_sets(graph, limit=None):
    """All maximal pairwise-parallel separator sets via the MIS oracle."""
    import networkx as nx

    seps = sorted(minimal_separators(graph), key=sorted)
    family = SeparatorFamily(graph, seps)
    parallel = nx.Graph()
    parallel.add_nodes_from(range(len(seps)))
    for i in range(len(seps)):
        for j in range(i + 1, len(seps)):
            if not family.crosses(seps[i], seps[j]):
                parallel.add_edge(i, j)
    sets = []
    for clique in nx.find_cliques(parallel):
        sets.append({seps[i] for i in clique})
        if limit and len(sets) >= limit:
            break
    return sets


class TestTheorem25:
    def test_forward_direction(self):
        """Saturating a maximal parallel set gives a minimal triangulation
        whose separator set is exactly the saturated set (Thm 2.5(1))."""
        for seed in range(8):
            g = erdos_renyi(8, 0.4, seed=seed)
            if not g.is_connected():
                continue
            for m in maximal_parallel_sets(g, limit=6):
                h = saturate_separators(g, m)
                assert is_minimal_triangulation(g, h), seed
                assert minimal_separators_chordal(h) == set(m), seed

    def test_reverse_direction(self):
        """MinSep(H) of a minimal triangulation is maximal pairwise-parallel
        and re-saturating reproduces H (Thm 2.5(2))."""
        from repro.triangulation.lb_triang import lb_triang

        for seed in range(10):
            g = erdos_renyi(9, 0.35, seed=seed)
            if not g.is_connected():
                continue
            h = lb_triang(g)
            m = minimal_separators_chordal(h)
            family = SeparatorFamily(g, minimal_separators(g))
            assert family.is_pairwise_parallel(m)
            # maximality: every outside separator crosses a member
            for s in set(family) - set(m):
                assert any(family.crosses(s, t) for t in m), seed
            assert saturate_separators(g, m) == h, seed

    def test_paper_example_two_triangulations(self, paper_graph):
        sets = maximal_parallel_sets(paper_graph)
        assert len(sets) == 2  # H1 and H2 of Figure 1(b)
        fills = sorted(
            saturate_separators(paper_graph, m).num_edges() - paper_graph.num_edges()
            for m in sets
        )
        # H2 saturates {u,v} (1 fill edge), H1 saturates {w1,w2,w3} (3).
        assert fills == [1, 3]


class TestSaturateBags:
    def test_bags_become_cliques(self):
        g = cycle_graph(5)
        h = saturate_bags(g, [{0, 1, 2}, {2, 3, 4}])
        assert h.is_clique({0, 1, 2})
        assert h.is_clique({2, 3, 4})

    def test_original_untouched(self):
        g = cycle_graph(5)
        saturate_bags(g, [{0, 1, 2}])
        assert g.num_edges() == 5


class TestAbsentVertexValidation:
    """Both saturation kernels reject groups naming absent vertices."""

    def test_bitset_kernel_raises_value_error(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        with pytest.raises(ValueError, match="not in graph"):
            saturate_separators(g, [frozenset({2, 99})], kernel="bitset")
        with pytest.raises(ValueError, match="not in graph"):
            saturate_bags(g, [frozenset({1, "typo"})], kernel="bitset")

    def test_sets_kernel_raises_value_error(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        with pytest.raises(ValueError, match="not in graph"):
            saturate_separators(g, [frozenset({2, 99})], kernel="sets")
