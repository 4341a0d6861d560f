"""Tests for the crossing/parallel relation and SeparatorFamily."""

from repro.graphs.generators import cycle_graph, erdos_renyi
from repro.separators.berry import minimal_separators
from repro.separators.crossing import SeparatorFamily, are_parallel, crosses


class TestCrosses:
    def test_paper_example(self, paper_graph):
        s1 = frozenset({"w1", "w2", "w3"})
        s2 = frozenset({"u", "v"})
        s3 = frozenset({"v"})
        assert crosses(paper_graph, s1, s2)
        assert crosses(paper_graph, s2, s1)
        assert are_parallel(paper_graph, s1, s3)
        assert are_parallel(paper_graph, s2, s3)

    def test_self_parallel(self, paper_graph):
        s = frozenset({"u", "v"})
        assert not crosses(paper_graph, s, s)

    def test_cycle_crossing_structure(self):
        g = cycle_graph(6)
        # {0,3} and {1,4} interleave on the cycle: crossing.
        assert crosses(g, frozenset({0, 3}), frozenset({1, 4}))
        # {0,2} and {0,4} share vertex 0 and do not interleave: parallel.
        assert are_parallel(g, frozenset({0, 2}), frozenset({0, 4}))

    def test_symmetry_random(self):
        for seed in range(12):
            g = erdos_renyi(8, 0.4, seed=seed)
            seps = sorted(minimal_separators(g), key=sorted)
            for i, s in enumerate(seps):
                for t in seps[i + 1 :]:
                    assert crosses(g, s, t) == crosses(g, t, s), (seed, s, t)


class TestSeparatorFamily:
    def test_cached_matches_direct(self):
        for seed in range(12):
            g = erdos_renyi(8, 0.4, seed=seed)
            seps = sorted(minimal_separators(g), key=sorted)
            family = SeparatorFamily(g, seps)
            for i, s in enumerate(seps):
                for t in seps[i + 1 :]:
                    assert family.crosses(s, t) == crosses(g, s, t)

    def test_registration(self, paper_graph):
        family = SeparatorFamily(paper_graph)
        s = frozenset({"v"})
        idx = family.add(s)
        assert family.add(s) == idx  # idempotent
        assert family.id_of(s) == idx
        assert family.separator(idx) == s
        assert s in family
        assert len(family) == 1

    def test_pairwise_parallel_check(self, paper_graph):
        family = SeparatorFamily(paper_graph, minimal_separators(paper_graph))
        s1 = frozenset({"w1", "w2", "w3"})
        s2 = frozenset({"u", "v"})
        s3 = frozenset({"v"})
        assert family.is_pairwise_parallel([s1, s3])
        assert not family.is_pairwise_parallel([s1, s2, s3])

    def test_extend_to_maximal(self, paper_graph):
        seps = minimal_separators(paper_graph)
        family = SeparatorFamily(paper_graph, sorted(seps, key=sorted))
        maximal = family.extend_to_maximal([])
        # Every separator outside the set must cross a member.
        for s in seps - maximal:
            assert any(family.crosses(s, t) for t in maximal)
        # And the set itself is pairwise parallel.
        assert family.is_pairwise_parallel(maximal)

    def test_extend_preserves_base(self, paper_graph):
        seps = minimal_separators(paper_graph)
        family = SeparatorFamily(paper_graph, seps)
        base = [frozenset({"u", "v"})]
        maximal = family.extend_to_maximal(base)
        assert frozenset({"u", "v"}) in maximal
