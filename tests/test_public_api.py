"""Smoke tests of the top-level public API surface."""

import repro


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_readme_quickstart(self):
        g = repro.Graph(
            edges=[
                ("u", "w1"),
                ("u", "w2"),
                ("u", "w3"),
                ("v", "w1"),
                ("v", "w2"),
                ("v", "w3"),
                ("v", "v'"),
            ]
        )
        results = list(repro.Session().stream(g, repro.WidthCost()))
        assert [(r.rank, r.triangulation.width, r.triangulation.fill_in()) for r in results] == [
            (0, 2, 1),
            (1, 3, 3),
        ]
        assert repro.treewidth(g) == 2
        assert repro.minimum_fill_in(g) == 1

    def test_ghd_surface(self):
        q = repro.Hypergraph([("a", "b"), ("b", "c"), ("c", "a")])
        ghd = repro.minimum_ghd(q)
        assert ghd.width == 2
        assert ghd.is_valid()

    def test_make_cost_surface(self):
        g = repro.Graph(edges=[(0, 1), (1, 2)])
        cost = repro.make_cost("width", g)
        assert cost.evaluate(g, [frozenset({0, 1})]) == 1
