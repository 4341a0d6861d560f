"""``warm_graphs`` (``repro cache warm``): each graph file is read once
for all its costs, and a file that cannot be read is reported once."""

from __future__ import annotations

import repro.graphs.io as graph_io
from repro.cache import warm_graphs
from repro.cli import main
from repro.graphs.generators import cycle_graph
from repro.graphs.io import write_graph


def test_each_file_is_parsed_once(tmp_path, monkeypatch):
    path = tmp_path / "c6.gr"
    write_graph(cycle_graph(6), path)
    parses = []
    parse = graph_io.parse_gr

    def counting(text):
        parses.append(text)
        return parse(text)

    monkeypatch.setattr(graph_io, "parse_gr", counting)
    report = warm_graphs(
        [str(path)], costs=("width", "fill"), cache_dir=tmp_path / "cache"
    )
    assert report.ok
    assert [row["cost"] for row in report.warmed] == ["width", "fill"]
    assert len(parses) == 1


def test_unreadable_file_is_one_error(tmp_path):
    missing = str(tmp_path / "missing.gr")
    lines = []
    report = warm_graphs(
        [missing],
        costs=("width", "fill"),
        cache_dir=tmp_path / "cache",
        announce=lines.append,
    )
    assert [row["graph"] for row in report.errors] == [missing]
    assert [line for line in lines if line.startswith("warm FAILED")] == [
        f"warm FAILED {missing}: {report.errors[0]['error']}"
    ]


def test_cli_reports_a_missing_file_once(tmp_path, capsys):
    good = tmp_path / "c6.gr"
    write_graph(cycle_graph(6), good)
    missing = str(tmp_path / "missing.gr")
    code = main(
        ["cache", "warm", str(good), missing, "--cache-dir", str(tmp_path / "c")]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("warm FAILED") == 1
    assert out.count("warm ok") == 2
