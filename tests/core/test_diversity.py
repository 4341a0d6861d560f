"""Tests for the diversity extension (paper §8 future work)."""

from repro.core.diversity import triangulation_distance
from repro.costs.classic import FillInCost, WidthCost
from repro.graphs.generators import cycle_graph


def top_triangulations(session, graph, cost, k):
    """The ``k`` cheapest triangulations, as ``session.top`` ranks them."""
    return [r.triangulation for r in session.top(graph, cost, k=k).results]


class TestDistance:
    def test_zero_iff_same(self, session, paper_graph):
        a, b = top_triangulations(session, paper_graph, WidthCost(), 2)
        assert triangulation_distance(a, a) == 0
        assert triangulation_distance(a, b) > 0

    def test_symmetric(self, session, paper_graph):
        a, b = top_triangulations(session, paper_graph, WidthCost(), 2)
        assert triangulation_distance(a, b) == triangulation_distance(b, a)

    def test_paper_example_value(self, session, paper_graph):
        # Fill sets: {uv} vs {w1w2, w1w3, w2w3} → symmetric difference 4.
        a, b = top_triangulations(session, paper_graph, FillInCost(), 2)
        assert triangulation_distance(a, b) == 4


class TestDiverseTopK:
    def test_min_distance_one_is_plain_top_k(self, session):
        g = cycle_graph(6)
        plain = top_triangulations(session, g, FillInCost(), 5)
        diverse = session.diverse(g, FillInCost(), k=5, min_distance=1).results
        assert [t.bags for t in diverse] == [t.bags for t in plain]

    def test_pairwise_separation_enforced(self, session):
        g = cycle_graph(7)
        kept = session.diverse(g, FillInCost(), k=6, min_distance=4).results
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert triangulation_distance(a, b) >= 4

    def test_first_is_optimum(self, session):
        g = cycle_graph(7)
        kept = session.diverse(g, FillInCost(), k=3, min_distance=3).results
        assert kept[0].cost == 4  # C7 optimum fill = n - 3

    def test_selects_k(self, session):
        g = cycle_graph(7)
        optimum = top_triangulations(session, g, FillInCost(), 1)[0]
        kept = session.diverse(g, FillInCost(), k=4, min_distance=2).results
        assert len(kept) == 4
        assert kept[0].bags == optimum.bags

    def test_spread_not_worse_than_prefix(self, session):
        g = cycle_graph(7)

        def min_dist(ts):
            return min(
                triangulation_distance(a, b)
                for i, a in enumerate(ts)
                for b in ts[i + 1 :]
            )

        kept = session.diverse(g, FillInCost(), k=4, min_distance=4).results
        prefix = top_triangulations(session, g, FillInCost(), 4)
        assert len(kept) == 4
        assert min_dist(kept) >= min_dist(prefix)

    def test_small_space(self, session):
        # C4 has two minimal triangulations: asking for more keeps both.
        response = session.diverse(cycle_graph(4), FillInCost(), k=10)
        assert len(response.results) == 2
        assert response.exhausted

    def test_respects_scan_limit(self, session):
        g = cycle_graph(7)
        kept = session.diverse(
            g, FillInCost(), k=10, min_distance=100, scan_limit=5
        ).results
        assert len(kept) == 1  # nothing is 100 apart; only the optimum kept

    def test_k_zero(self, session):
        assert list(session.diverse(cycle_graph(5), FillInCost(), k=0).results) == []

    def test_width_bound_threads_through(self, session):
        """Regression: the diverse scan used to silently ignore width bounds.

        C6 has treewidth 2, so a bound of 1 must yield nothing, a bound
        of 2 must filter nothing, and both must agree with the bounded
        ranked stream rather than scanning the unbounded one.
        """
        g = cycle_graph(6)
        assert list(session.diverse(g, FillInCost(), k=5, width_bound=1).results) == []
        bounded = session.diverse(g, FillInCost(), k=5, width_bound=2).results
        unbounded = session.diverse(g, FillInCost(), k=5).results
        assert [t.bags for t in bounded] == [t.bags for t in unbounded]
        for tri in bounded:
            assert tri.width <= 2
