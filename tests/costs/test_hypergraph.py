"""Tests for hypertree-width and fractional-hypertree-width bag costs."""

import itertools
import random

import pytest

from repro.api import Session
from repro.core.decomposition import TreeDecomposition
from repro.costs.hypergraph import (
    FractionalHypertreeWidthCost,
    Hypergraph,
    HypertreeWidthCost,
    fractional_cover_weight,
    minimum_edge_cover_size,
)


def triangle_query() -> Hypergraph:
    """R(a,b) ⋈ S(b,c) ⋈ T(c,a) — the classic fhw = 3/2 example."""
    return Hypergraph([("a", "b"), ("b", "c"), ("c", "a")])


def cycle_query(n: int) -> Hypergraph:
    variables = [f"x{i}" for i in range(n)]
    return Hypergraph([(variables[i], variables[(i + 1) % n]) for i in range(n)])


def acyclic_query() -> Hypergraph:
    """R(a,b,c) ⋈ S(c,d) ⋈ T(d,e): alpha-acyclic, so ghw 1."""
    return Hypergraph([("a", "b", "c"), ("c", "d"), ("d", "e")])


def ranked_ghw(query: Hypergraph, limit: int | None = None):
    """Bag-distinct decompositions of ``query`` by generalized hypertree
    width, as ``Session.decomposition_stream`` ranks them."""
    stream = Session().decomposition_stream(
        query.primal_graph(), HypertreeWidthCost(query), per_triangulation=1
    )
    return list(itertools.islice(stream, limit))


class TestHypergraph:
    def test_primal_graph(self):
        h = Hypergraph([(1, 2, 3), (3, 4)])
        g = h.primal_graph()
        assert g.has_edge(1, 2) and g.has_edge(2, 3) and g.has_edge(3, 4)
        assert not g.has_edge(1, 4)

    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            Hypergraph([()])

    def test_covering_edges(self):
        h = Hypergraph([(1, 2), (2, 3)])
        assert len(h.covering_edges(2)) == 2
        assert len(h.covering_edges(1)) == 1


class TestIntegralCover:
    def test_single_edge_suffices(self):
        h = Hypergraph([(1, 2, 3), (3, 4)])
        assert minimum_edge_cover_size(h, frozenset({1, 2})) == 1

    def test_triangle_needs_two(self):
        h = triangle_query()
        assert minimum_edge_cover_size(h, frozenset({"a", "b", "c"})) == 2

    def test_uncoverable(self):
        h = Hypergraph([(1, 2)])
        with pytest.raises(ValueError):
            minimum_edge_cover_size(h, frozenset({3}))

    def test_chain(self):
        h = Hypergraph([(1, 2), (2, 3), (3, 4), (4, 5)])
        assert minimum_edge_cover_size(h, frozenset({1, 3, 5})) == 3
        assert minimum_edge_cover_size(h, frozenset({2, 3})) == 1

    def test_against_exhaustive_search(self):
        rng = random.Random(7)
        for _ in range(25):
            edges = [
                tuple(rng.sample(range(7), rng.randint(1, 3))) for _ in range(6)
            ]
            h = Hypergraph(edges)
            bag = frozenset(rng.sample(sorted(h.vertices), min(4, len(h.vertices))))
            smallest = min(
                r
                for r in range(1, len(h.hyperedges) + 1)
                for chosen in itertools.combinations(h.hyperedges, r)
                if bag <= frozenset().union(*chosen)
            )
            assert minimum_edge_cover_size(h, bag) == smallest, edges

    def test_greedy_trap(self):
        # Greedy would take the big edge {1,2,3,4} then need two more;
        # the optimum is two edges {1,2,3} ∪ {4,5,6} — wait, build a real
        # trap: universe {1..6}, edges {3,4}, {1,2,3}, {4,5,6}.
        h = Hypergraph([(3, 4), (1, 2, 3), (4, 5, 6)])
        assert minimum_edge_cover_size(h, frozenset(range(1, 7))) == 2


class TestFractionalCover:
    def test_triangle_is_three_halves(self):
        h = triangle_query()
        assert fractional_cover_weight(
            h, frozenset({"a", "b", "c"})
        ) == pytest.approx(1.5)

    def test_single_edge(self):
        h = Hypergraph([(1, 2)])
        assert fractional_cover_weight(h, frozenset({1, 2})) == pytest.approx(1.0)

    def test_never_exceeds_integral(self):
        h = Hypergraph([(1, 2), (2, 3), (3, 1), (1, 4), (4, 5)])
        for bag in [frozenset({1, 2, 3}), frozenset({1, 4, 5}), frozenset({2, 3, 4})]:
            frac = fractional_cover_weight(h, bag)
            integral = minimum_edge_cover_size(h, bag)
            assert frac <= integral + 1e-9


class TestWidthCosts:
    def test_hypertree_width_cost(self):
        h = triangle_query()
        g = h.primal_graph()
        cost = HypertreeWidthCost(h)
        # one bag with the whole triangle: ghw candidate value 2
        assert cost.evaluate(g, [frozenset({"a", "b", "c"})]) == 2.0

    def test_fractional_cost(self):
        h = triangle_query()
        g = h.primal_graph()
        cost = FractionalHypertreeWidthCost(h)
        assert cost.evaluate(g, [frozenset({"a", "b", "c"})]) == pytest.approx(1.5)

    def test_caching_consistency(self):
        h = triangle_query()
        g = h.primal_graph()
        cost = HypertreeWidthCost(h)
        bag = frozenset({"a", "b"})
        assert cost.evaluate(g, [bag]) == cost.evaluate(g, [bag]) == 1.0

    def test_empty_bags(self):
        h = triangle_query()
        assert HypertreeWidthCost(h).evaluate(h.primal_graph(), []) == 0.0


class TestRankedHypertreeWidth:
    """Ghw-ranked decompositions: ``decomposition_stream`` with
    :class:`HypertreeWidthCost` on the query's primal graph."""

    def test_acyclic_width_one(self):
        query = acyclic_query()
        best = ranked_ghw(query, 1)[0]
        assert best.cost == 1
        assert best.decomposition.is_valid(query.primal_graph())

    def test_triangle_width_two(self):
        query = triangle_query()
        best = ranked_ghw(query, 1)[0]
        assert best.cost == 2
        assert best.decomposition.is_valid(query.primal_graph())

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cycle_queries_width_two(self, n):
        query = cycle_query(n)
        best = ranked_ghw(query, 1)[0]
        assert best.cost == 2
        assert best.decomposition.is_valid(query.primal_graph())

    def test_cost_is_the_largest_bag_cover(self):
        query = cycle_query(5)
        for answer in ranked_ghw(query, 5):
            assert answer.cost == max(
                minimum_edge_cover_size(query, bag)
                for bag in answer.decomposition.bag_set()
            )

    def test_nondecreasing_width_over_the_whole_space(self):
        # C6 has Catalan(4) = 14 minimal triangulations; the one whose
        # middle bag is {x0, x2, x4} needs three edges to cover it.
        widths = [answer.cost for answer in ranked_ghw(cycle_query(6))]
        assert len(widths) == 14
        assert widths == sorted(widths)
        assert widths[0] == 2 and widths[-1] == 3

    def test_explicit_decomposition_width(self):
        query = acyclic_query()
        graph = query.primal_graph()
        td = TreeDecomposition(
            {0: {"a", "b", "c"}, 1: {"c", "d"}, 2: {"d", "e"}}, [(0, 1), (1, 2)]
        )
        assert td.is_valid(graph)
        assert HypertreeWidthCost(query).evaluate(graph, td.bag_set()) == 1.0
        # Dropping the bag of T(d,e) leaves e uncovered: no decomposition.
        assert not TreeDecomposition(
            {0: {"a", "b", "c"}, 1: {"c", "d"}}, [(0, 1)]
        ).is_valid(graph)
