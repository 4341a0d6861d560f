"""Tests for the κ[I,X] constraint compilation (Section 6.1)."""

import math

import pytest

from repro.costs.classic import FillInCost, WidthCost
from repro.costs.constrained import (
    ConstrainedCost,
    is_clique_after_saturation,
    satisfies_constraints,
)
from repro.graphs.generators import cycle_graph


class TestCliqueAfterSaturation:
    def test_graph_edges_count(self):
        g = cycle_graph(4)
        assert is_clique_after_saturation(g, [], frozenset({0, 1}))

    def test_bag_covers_missing_pair(self):
        g = cycle_graph(4)
        assert is_clique_after_saturation(g, [frozenset({0, 1, 2})], frozenset({0, 2}))
        assert not is_clique_after_saturation(g, [frozenset({0, 1, 2})], frozenset({1, 3}))

    def test_cross_bag_pairs(self):
        g = cycle_graph(6)
        bags = [frozenset({0, 2}), frozenset({2, 4})]
        # pair (0,4) is in no single bag and not an edge
        assert not is_clique_after_saturation(g, bags, frozenset({0, 2, 4}))

    def test_small_candidates(self):
        g = cycle_graph(4)
        assert is_clique_after_saturation(g, [], frozenset({0}))
        assert is_clique_after_saturation(g, [], frozenset())


class TestSatisfies:
    def test_guarded_by_vertex_set(self, paper_graph):
        sub = paper_graph.subgraph({"u", "w1", "w2"})
        out_of_scope = frozenset({"v", "v'"})
        # Constraint mentions vertices outside the region: vacuously fine.
        assert satisfies_constraints(sub, [], include=[out_of_scope], exclude=[])
        assert satisfies_constraints(sub, [], include=[], exclude=[out_of_scope])

    def test_include_and_exclude(self):
        g = cycle_graph(4)
        bags = [frozenset({0, 1, 2}), frozenset({0, 2, 3})]
        chord = frozenset({0, 2})
        other = frozenset({1, 3})
        assert satisfies_constraints(g, bags, include=[chord], exclude=[other])
        assert not satisfies_constraints(g, bags, include=[other], exclude=[])
        assert not satisfies_constraints(g, bags, include=[], exclude=[chord])


class TestConstrainedCost:
    def test_feasible_equals_base(self):
        g = cycle_graph(4)
        bags = [frozenset({0, 1, 2}), frozenset({0, 2, 3})]
        base = FillInCost()
        cost = ConstrainedCost(base, include=[frozenset({0, 2})])
        assert cost.evaluate(g, bags) == base.evaluate(g, bags)

    def test_violation_is_infinite(self):
        g = cycle_graph(4)
        bags = [frozenset({0, 1, 2}), frozenset({0, 2, 3})]
        cost = ConstrainedCost(FillInCost(), exclude=[frozenset({0, 2})])
        assert math.isinf(cost.evaluate(g, bags))

    def test_include_exclude_overlap_rejected(self):
        with pytest.raises(ValueError):
            ConstrainedCost(WidthCost(), include=[frozenset({1})], exclude=[frozenset({1})])

    def test_name_mentions_constraints(self):
        cost = ConstrainedCost(WidthCost(), include=[frozenset({1, 2})])
        assert "I=1" in cost.name and "X=0" in cost.name

    def test_base_accessor(self):
        base = WidthCost()
        assert ConstrainedCost(base).base is base

    def test_region_guard_with_ranked_semantics(self, paper_graph):
        """On a sub-block the out-of-region constraints must not fire."""
        sub = paper_graph.subgraph({"v", "v'"})
        cost = ConstrainedCost(
            WidthCost(),
            include=[frozenset({"w1", "w2", "w3"})],
            exclude=[frozenset({"u", "v"})],
        )
        bags = [frozenset({"v", "v'"})]
        assert cost.evaluate(sub, bags) == WidthCost().evaluate(sub, bags)
