"""Tests for the PACE .td decomposition format."""

import pytest

from repro.core.decomposition import TreeDecomposition
from repro.core.mintriang import min_triangulation
from repro.costs.classic import WidthCost
from repro.graphs.generators import cycle_graph, grid_graph, petersen_graph
from repro.graphs.graph import Graph
from repro.graphs.td_io import parse_td, read_td, to_td, write_td


TD_SAMPLE = """c a decomposition of a path on four vertices
s td 3 2 4
b 1 1 2
b 2 2 3
b 3 3 4
1 2
2 3
"""


class TestParse:
    def test_sample(self):
        td = parse_td(TD_SAMPLE)
        assert len(td) == 3
        assert td.width == 1
        g = Graph(edges=[(1, 2), (2, 3), (3, 4)])
        assert td.is_valid(g)

    def test_missing_solution_line(self):
        with pytest.raises(ValueError):
            parse_td("b 1 1 2\n")

    def test_duplicate_solution_line(self):
        with pytest.raises(ValueError):
            parse_td("s td 1 1 1\ns td 1 1 1\nb 1 1\n")

    def test_bag_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_td("s td 2 1 2\nb 1 1\n")

    def test_unknown_bag_edge(self):
        with pytest.raises(ValueError, match="^line 3: tree edge"):
            parse_td("s td 1 1 1\nb 1 1\n1 7\n")

    def test_non_integer_token(self):
        for text, lineno in (
            ("s td two 1 1\nb 1 1\n", 1),
            ("s td 1 1 1\nb one 1\n", 2),
            ("s td 1 1 1\nb 1 x\n", 2),
            ("s td 2 1 2\nb 1 1\nb 2 2\n1 y\n", 4),
        ):
            with pytest.raises(ValueError, match=f"^line {lineno}: expected an integer"):
                parse_td(text)

    def test_duplicate_bag(self):
        with pytest.raises(ValueError):
            parse_td("s td 2 1 2\nb 1 1\nb 1 2\n")

    def test_empty_bag_allowed(self):
        td = parse_td("s td 2 1 1\nb 1 1\nb 2\n1 2\n")
        assert frozenset() in td.bag_set()


class TestSerialize:
    def test_round_trip(self):
        for graph in (cycle_graph(6), grid_graph(3, 3), petersen_graph()):
            relabeled, _ = graph.relabeled()
            result = min_triangulation(relabeled, WidthCost())
            td = TreeDecomposition.from_bags(result.bags)
            back = parse_td(to_td(td, relabeled))
            assert back.bag_set() == td.bag_set()
            assert back.width == td.width
            assert back.is_valid(relabeled)

    def test_non_integer_labels_rejected(self):
        td = TreeDecomposition({0: {"a", "b"}}, [])
        with pytest.raises(ValueError):
            to_td(td)

    def test_vertex_count_from_graph(self):
        g = Graph(vertices=[1, 2, 3], edges=[(1, 2)])  # vertex 3 isolated
        td = TreeDecomposition({0: {1, 2}, 1: {3}}, [(0, 1)])
        text = to_td(td, g)
        assert text.splitlines()[0] == "s td 2 2 3"


class TestFiles:
    def test_write_read(self, tmp_path):
        g = cycle_graph(5)
        result = min_triangulation(g, WidthCost())
        td = TreeDecomposition.from_bags(result.bags)
        path = tmp_path / "out.td"
        write_td(td, path, g)
        back = read_td(path)
        assert back.is_valid(g)


class TestCliIntegration:
    def test_decompose_then_validate(self, tmp_path):
        from repro.cli import main
        from repro.graphs.io import write_graph

        graph_path = tmp_path / "g.gr"
        td_path = tmp_path / "g.td"
        write_graph(cycle_graph(6), graph_path)
        assert main(["decompose", str(graph_path), str(td_path)]) == 0
        assert main(["validate", str(graph_path), str(td_path)]) == 0
        assert main(["validate", str(graph_path), str(td_path), "--proper"]) == 0

    def test_validate_rejects_wrong_graph(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graphs.io import write_graph

        graph_path = tmp_path / "g.gr"
        other_path = tmp_path / "h.gr"
        td_path = tmp_path / "g.td"
        write_graph(cycle_graph(6), graph_path)
        write_graph(grid_graph(3, 3), other_path)
        assert main(["decompose", str(graph_path), str(td_path)]) == 0
        assert main(["validate", str(other_path), str(td_path)]) == 1
        assert "INVALID" in capsys.readouterr().out
