"""Smoke tests of the top-level public API surface."""

import importlib
import inspect
import pkgutil

import repro


class TestPublicSurface:
    def test_all_exports_resolve(self):
        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        for package in packages:
            for name in getattr(package, "__all__", ()):
                assert hasattr(package, name), f"{package.__name__}.{name}"

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

    def test_hypertree_width_surface(self):
        q = repro.Hypergraph([("a", "b"), ("b", "c"), ("c", "a")])
        stream = repro.Session().decomposition_stream(
            q.primal_graph(), repro.HypertreeWidthCost(q), per_triangulation=1
        )
        best = next(stream)
        stream.close()
        assert best.cost == 2
        assert best.decomposition.is_valid(q.primal_graph())

    def test_make_cost_surface(self):
        g = repro.Graph(edges=[(0, 1), (1, 2)])
        cost = repro.make_cost("width", g)
        assert cost.evaluate(g, [frozenset({0, 1})]) == 1

    def test_session_caches_have_one_way_in(self):
        """Every context a Session caches is one it built: no entry point
        takes a caller's context or store."""
        from repro.cache import warm_graphs

        entry_points = [repro.Session.__init__, warm_graphs] + [
            member
            for name, member in inspect.getmembers(
                repro.Session, inspect.isfunction
            )
            if not name.startswith("_")
        ]
        for function in entry_points:
            parameters = inspect.signature(function).parameters
            assert not {"context", "store"} & set(parameters), function
        assert not hasattr(repro.Session, "adopt_context")
