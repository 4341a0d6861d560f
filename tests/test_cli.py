"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graphs.generators import cycle_graph, petersen_graph
from repro.graphs.io import write_graph


@pytest.fixture
def gr_file(tmp_path):
    path = tmp_path / "cycle6.gr"
    write_graph(cycle_graph(6), path)
    return str(path)


class TestStats:
    def test_stats(self, gr_file, capsys):
        assert main(["stats", gr_file]) == 0
        out = capsys.readouterr().out
        assert "vertices: 6" in out
        assert "minimal separators: 9" in out

    def test_disconnected_graph_errors(self, tmp_path, capsys):
        from repro.graphs.graph import Graph

        path = tmp_path / "two.gr"
        write_graph(Graph(edges=[(1, 2), (3, 4)]), path)
        assert main(["stats", str(path)]) == 2


class TestTreewidth:
    def test_cycle(self, gr_file, capsys):
        assert main(["treewidth", gr_file]) == 0
        out = capsys.readouterr().out
        assert "treewidth: 2" in out
        assert "minimum fill-in: 3" in out

    def test_petersen(self, tmp_path, capsys):
        path = tmp_path / "petersen.gr"
        write_graph(petersen_graph(), path)
        assert main(["treewidth", str(path)]) == 0
        assert "treewidth: 4" in capsys.readouterr().out


class TestEnumerate:
    def test_default_width(self, gr_file, capsys):
        assert main(["enumerate", gr_file, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("#") == 3
        assert "width=2" in out

    def test_fill_cost(self, gr_file, capsys):
        assert main(["enumerate", gr_file, "--cost", "fill", "--top", "2"]) == 0
        assert "cost=3.0" in capsys.readouterr().out

    def test_width_bound_infeasible(self, gr_file, capsys):
        assert main(["enumerate", gr_file, "--width-bound", "1"]) == 0
        assert "no feasible" in capsys.readouterr().out

    def test_diverse(self, gr_file, capsys):
        assert main(["enumerate", gr_file, "--top", "3", "--diverse", "4"]) == 0
        out = capsys.readouterr().out
        assert "#0" in out

    def test_unknown_cost_rejected(self, gr_file):
        with pytest.raises(SystemExit):
            main(["enumerate", gr_file, "--cost", "bogus"])


class TestCheckpointResume:
    def test_resume_continues_the_sequence(self, gr_file, tmp_path, capsys):
        token = str(tmp_path / "state.bin")
        assert main(
            ["enumerate", gr_file, "--cost", "fill", "--top", "2",
             "--checkpoint", token]
        ) == 0
        head = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("#")
        ]
        assert main(["enumerate", gr_file, "--resume", token, "--top", "2"]) == 0
        tail = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("#")
        ]
        assert main(["enumerate", gr_file, "--cost", "fill", "--top", "4"]) == 0
        uninterrupted = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("#")
        ]
        assert head + tail == uninterrupted

    def test_resume_rejects_different_graph(self, gr_file, tmp_path, capsys):
        token = str(tmp_path / "state.bin")
        assert main(
            ["enumerate", gr_file, "--top", "1", "--checkpoint", token]
        ) == 0
        capsys.readouterr()
        other = tmp_path / "petersen.gr"
        write_graph(petersen_graph(), other)
        assert main(["enumerate", str(other), "--resume", token]) == 2
        assert "different graph" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_resume_refuses_an_unreadable_token(
        self, gr_file, tmp_path, capsys, damage
    ):
        """A damaged token is an ``error:`` line and exit 2, like the
        other refusals, never a traceback."""
        token = tmp_path / "state.bin"
        assert main(
            ["enumerate", gr_file, "--top", "1", "--checkpoint", str(token)]
        ) == 0
        capsys.readouterr()
        blob = token.read_bytes()
        token.write_bytes(blob[: len(blob) // 2] if damage == "truncated" else b"garbage")
        assert main(["enumerate", gr_file, "--resume", str(token)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_resume_with_diverse_rejected(self, gr_file, tmp_path, capsys):
        token = str(tmp_path / "state.bin")
        assert main(
            ["enumerate", gr_file, "--resume", token, "--diverse", "2"]
        ) == 2
        assert "--diverse" in capsys.readouterr().err


class TestDatasets:
    def test_lists_families(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "TPC-H" in out
        assert "Pace2016-100s" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestPreprocessFlag:
    @pytest.fixture
    def decomposable_file(self, tmp_path):
        from repro.graphs.generators import ring_of_cycles

        path = tmp_path / "ring.gr"
        write_graph(ring_of_cycles(2, 5), path)
        return str(path)

    def test_no_preprocess_same_costs(self, decomposable_file, capsys):
        assert main(["enumerate", decomposable_file, "--cost", "fill",
                     "--top", "25"]) == 0
        on = capsys.readouterr().out
        assert main(["enumerate", decomposable_file, "--cost", "fill",
                     "--top", "25", "--no-preprocess"]) == 0
        off = capsys.readouterr().out

        def costs(text):
            return [line.split("cost=")[1].split()[0]
                    for line in text.splitlines() if line.startswith("#")]

        assert costs(on) == costs(off)
        assert len(costs(on)) == 25

    def test_composed_checkpoint_resume_roundtrip(
        self, decomposable_file, tmp_path, capsys
    ):
        token = str(tmp_path / "ring.ckpt")
        assert main(["enumerate", decomposable_file, "--cost", "fill",
                     "--top", "25"]) == 0
        uninterrupted = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("#")
        ]
        assert main(["enumerate", decomposable_file, "--cost", "fill",
                     "--top", "8", "--checkpoint", token]) == 0
        head = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("#")]
        assert main(["enumerate", decomposable_file, "--resume", token,
                     "--top", "17"]) == 0
        tail = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("#")]
        assert head + tail == uninterrupted


class TestServeSubmit:
    """`repro submit` against a live in-process service."""

    @pytest.fixture()
    def service(self):
        from repro.service import ServerThread

        with ServerThread(max_workers=2) as handle:
            yield handle.address

    def test_submit_streams_answers(self, service, gr_file, capsys):
        host, port = service
        rc = main([
            "submit", gr_file, "--cost", "fill", "--top", "3",
            "--host", host, "--port", str(port),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("#") >= 1
        assert "stats:" in out

    def test_submit_format_table(self, service, gr_file, capsys):
        host, port = service
        rc = main([
            "submit", gr_file, "--cost", "fill", "--top", "3",
            "--format", "table", "--host", host, "--port", str(port),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines[0].split() == ["rank", "cost", "width", "bags"]
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].startswith("0")
        # Structured modes keep stdout machine-readable: the terminal
        # summary moves to stderr.
        assert "stats:" not in captured.out
        assert "stats:" in captured.err

    def test_submit_format_csv(self, service, gr_file, capsys):
        import csv as csv_mod
        import io as io_mod

        host, port = service
        rc = main([
            "submit", gr_file, "--cost", "fill", "--top", "2",
            "--format", "csv", "--host", host, "--port", str(port),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        rows = list(csv_mod.reader(io_mod.StringIO(captured.out)))
        assert rows[0] == ["rank", "cost", "width", "bags"]
        assert len(rows) == 3
        assert rows[1][0] == "0"

    def test_submit_format_json(self, service, gr_file, capsys):
        import json as json_mod

        host, port = service
        rc = main([
            "submit", gr_file, "--cost", "fill", "--top", "2",
            "--format", "json", "--host", host, "--port", str(port),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        payload = json_mod.loads(captured.out)
        assert [row["rank"] for row in payload] == [0, 1]
        assert all(
            isinstance(row["bags"], list) and row["cost"] >= 0
            for row in payload
        )

    def test_submit_checkpoint_resume_continues(
        self, service, gr_file, tmp_path, capsys
    ):
        host, port = service
        token = str(tmp_path / "service.tok")
        assert main([
            "submit", gr_file, "--mode", "enumerate", "--cost", "fill",
            "--top", "20", "--host", host, "--port", str(port),
        ]) == 0
        uninterrupted = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("#")
        ]
        assert main([
            "submit", gr_file, "--mode", "enumerate", "--cost", "fill",
            "--top", "2", "--host", host, "--port", str(port),
            "--checkpoint", token,
        ]) == 0
        head = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("#")]
        assert main([
            "submit", "--resume", token, "--top", "18",
            "--host", host, "--port", str(port),
        ]) == 0
        tail = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("#")]
        assert head + tail == uninterrupted[: len(head) + len(tail)]

    def test_submit_diverse_mode(self, service, gr_file, capsys):
        host, port = service
        rc = main([
            "submit", gr_file, "--mode", "diverse", "--top", "2",
            "--min-distance", "2", "--host", host, "--port", str(port),
        ])
        assert rc == 0
        assert "#" in capsys.readouterr().out

    def test_submit_rejects_graph_plus_resume(self, gr_file, tmp_path, capsys):
        rc = main([
            "submit", gr_file, "--resume", str(tmp_path / "nope.tok"),
        ])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_submit_unreachable_server_errors(self, gr_file, capsys):
        rc = main([
            "submit", gr_file, "--host", "127.0.0.1", "--port", "1",
        ])
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_k_zero_is_an_empty_page(self, service, tmp_path, capsys):
        from repro.graphs.generators import paper_example_graph

        host, port = service
        path = tmp_path / "paper.gr"
        write_graph(paper_example_graph(), path)
        rc = main([
            "submit", str(path), "--cost", "width", "--top", "0",
            "--host", host, "--port", str(port),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stats: 0 answers" in out

    def test_submit_resume_rejects_conflicting_flags(self, gr_file, tmp_path, capsys):
        rc = main([
            "submit", "--resume", str(tmp_path / "tok.bin"),
            "--cost", "fill", "--mode", "diverse",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--mode" in err and "--cost" in err

    def test_submit_checkpoint_on_exhausted_run_succeeds(
        self, service, gr_file, tmp_path, capsys
    ):
        host, port = service
        token = str(tmp_path / "done.tok")
        rc = main([
            "submit", gr_file, "--mode", "enumerate", "--cost", "fill",
            "--top", "500", "--host", host, "--port", str(port),
            "--checkpoint", token,
        ])
        out = capsys.readouterr().out
        assert rc == 0  # exhausting the space is success, not failure
        assert "(exhausted)" in out

    def test_submit_checkpoint_on_diverse_mode_errors(
        self, service, gr_file, tmp_path, capsys
    ):
        host, port = service
        rc = main([
            "submit", gr_file, "--mode", "diverse", "--top", "2",
            "--host", host, "--port", str(port),
            "--checkpoint", str(tmp_path / "nope.tok"),
        ])
        assert rc == 1
        assert "pausable" in capsys.readouterr().err
