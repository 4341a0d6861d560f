"""Tests for maximum-spanning-tree / clique-tree enumeration."""

import math
from itertools import combinations

import pytest

from repro.core.spanning import clique_trees, count_clique_trees, maximum_spanning_trees
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.triangulation.lb_triang import lb_triang


def brute_force_max_spanning_trees(n, edges):
    """All maximum spanning trees by trying every (n-1)-subset of edges."""
    best_weight = -math.inf
    trees = []
    for subset in combinations(range(len(edges)), n - 1):
        # check it forms a spanning tree
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        weight = 0.0
        for i in subset:
            w, a, b = edges[i]
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
            weight += w
        if not ok:
            continue
        if weight > best_weight + 1e-9:
            best_weight = weight
            trees = [frozenset(subset)]
        elif abs(weight - best_weight) <= 1e-9:
            trees.append(frozenset(subset))
    return set(trees)


class TestMaximumSpanningTrees:
    def test_matches_bruteforce_random(self):
        import random

        for seed in range(10):
            rng = random.Random(seed)
            n = rng.randint(3, 6)
            edges = []
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.7:
                        edges.append((float(rng.randint(1, 3)), a, b))
            got = {frozenset(t) for t in maximum_spanning_trees(n, edges)}
            expected = brute_force_max_spanning_trees(n, edges)
            assert got == expected, seed

    def test_unique_weights_single_tree(self):
        edges = [(3.0, 0, 1), (2.0, 1, 2), (1.0, 0, 2)]
        trees = list(maximum_spanning_trees(3, edges))
        assert len(trees) == 1
        assert trees[0] == [0, 1]

    def test_uniform_weights_counts_all_spanning_trees(self):
        # K_4 with equal weights: Cayley's formula gives 4^2 = 16 trees.
        edges = [(1.0, a, b) for a in range(4) for b in range(a + 1, 4)]
        assert len(list(maximum_spanning_trees(4, edges))) == 16

    def test_disconnected_yields_nothing(self):
        assert list(maximum_spanning_trees(3, [(1.0, 0, 1)])) == []

    def test_trivial_sizes(self):
        assert list(maximum_spanning_trees(0, [])) == []
        assert list(maximum_spanning_trees(1, [])) == [[]]


class TestCliqueTrees:
    def test_path_single_clique_tree(self):
        # Path cliques: {i,i+1} chains; adjacent cliques share one vertex;
        # the clique tree is unique.
        assert count_clique_trees(path_graph(5)) == 1

    def test_star_counts(self):
        # K_{1,3}: cliques {0,i} all share vertex 0 pairwise: any spanning
        # tree of the triangle-of-cliques works → 3 labeled trees on 3 nodes.
        assert count_clique_trees(star_graph(3)) == 3

    def test_complete_graph(self):
        assert count_clique_trees(complete_graph(5)) == 1

    def test_all_results_are_clique_trees(self):
        for seed in range(5):
            g = erdos_renyi(8, 0.35, seed=seed)
            if not g.is_connected():
                continue
            h = lb_triang(g)
            for td in clique_trees(h):
                assert td.is_clique_tree(h)
                assert td.is_valid(g)
                assert td.is_proper(g)

    def test_limit(self):
        g = star_graph(4)
        assert count_clique_trees(g, limit=2) == 2
        assert count_clique_trees(star_graph(3), limit=0) == 0

    def test_disconnected_rejected(self):
        g = Graph(edges=[(1, 2), (3, 4)])
        with pytest.raises(ValueError):
            list(clique_trees(g))

    def test_count_matches_spanning_tree_structure(self):
        # C_6 triangulated by chords {0,2},{0,3},{0,4} ("fan"): count must
        # equal the number of max spanning trees of its clique graph.
        g = cycle_graph(6)
        h = g.copy()
        h.add_edges([(0, 2), (0, 3), (0, 4)])
        count = count_clique_trees(h)
        assert count >= 1
        tds = list(clique_trees(h))
        assert len({tuple(sorted(map(tuple, map(sorted, td.bags.values())))) + tuple(sorted(td.edges)) for td in tds}) == len(tds)
