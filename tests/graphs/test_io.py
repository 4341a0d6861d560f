"""Tests for PACE .gr / DIMACS graph IO."""

import pytest

from repro.graphs.generators import grid_graph, petersen_graph
from repro.graphs.graph import Graph
from repro.graphs.io import (
    parse_dimacs,
    parse_gr,
    read_graph,
    to_dimacs,
    to_gr,
    write_graph,
)


GR_SAMPLE = """c example from the PACE format spec
p tw 4 3
1 2
2 3
3 4
"""

DIMACS_SAMPLE = """c coloring instance
p edge 4 4
e 1 2
e 2 3
e 3 4
e 4 1
"""


class TestGr:
    def test_parse(self):
        g = parse_gr(GR_SAMPLE)
        assert g.num_vertices() == 4
        assert g.num_edges() == 3
        assert g.has_edge(2, 3)

    def test_round_trip(self):
        g = petersen_graph()
        back = parse_gr(to_gr(g))
        assert back.num_vertices() == g.num_vertices()
        assert back.num_edges() == g.num_edges()

    def test_isolated_vertices_preserved(self):
        g = Graph(vertices=[1, 2, 3], edges=[(1, 2)])
        back = parse_gr(to_gr(g))
        assert back.num_vertices() == 3

    def test_malformed_problem_line(self):
        for text in ("p cnf 3 2\n1 2\n", "p tw three 2\n1 2\n"):
            with pytest.raises(ValueError, match="^line 1: "):
                parse_gr(text)

    def test_malformed_edge_line(self):
        for text in ("p tw 3 1\n1 2 3\n", "p tw 3 1\n1 x\n", "p tw 3 1\n1.5 2\n"):
            with pytest.raises(ValueError, match="^line 2: "):
                parse_gr(text)

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_gr("p tw 2 1\n1 3\n")


class TestDimacs:
    def test_parse(self):
        g = parse_dimacs(DIMACS_SAMPLE)
        assert g.num_vertices() == 4
        assert g.num_edges() == 4

    def test_round_trip(self):
        g = grid_graph(3, 3)
        back = parse_dimacs(to_dimacs(g))
        assert back.num_vertices() == 9
        assert back.num_edges() == g.num_edges()

    def test_unknown_line_rejected(self):
        for text in (
            "p edge 2 1\nq 1 2\n",
            "p edge 2 1\ne 1\n",
            "p edge 2 1\ne 1 x\n",
            "c comment\np edge two 1\n",
        ):
            with pytest.raises(ValueError, match="^line 2: "):
                parse_dimacs(text)

    def test_node_lines_ignored(self):
        g = parse_dimacs("p edge 2 1\nn 1 5\ne 1 2\n")
        assert g.num_edges() == 1


class TestFiles:
    def test_write_read_gr(self, tmp_path):
        g = petersen_graph()
        path = tmp_path / "petersen.gr"
        write_graph(g, path)
        back = read_graph(path)
        assert back.num_edges() == 15

    def test_write_read_col(self, tmp_path):
        g = grid_graph(2, 3)
        path = tmp_path / "grid.col"
        write_graph(g, path)
        back = read_graph(path)
        assert back.num_edges() == g.num_edges()
