"""Tests for the command-line interface."""

import json

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
        captured = capsys.readouterr()
        assert "error:" not in captured.out
        assert captured.err.startswith("error:")


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

    def test_kernel_offers_bitset_and_sets_only(self, gr_file, capsys):
        assert main(["enumerate", gr_file, "--top", "2", "--kernel", "sets"]) == 0
        sets_out = capsys.readouterr().out
        assert main(["enumerate", gr_file, "--top", "2"]) == 0
        assert capsys.readouterr().out == sets_out
        with pytest.raises(SystemExit) as excinfo:
            main(["enumerate", gr_file, "--kernel", "auto"])
        assert excinfo.value.code == 2
        assert "choose from 'bitset', 'sets'" in capsys.readouterr().err


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


class TestBadInputFiles:
    """A missing or malformed input file ends every command with
    ``error: PATH: message`` on stderr and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv, bad",
        [
            pytest.param(["stats", "{missing}"], "missing", id="stats-missing"),
            pytest.param(["stats", "{bad_gr}"], "bad_gr", id="stats-bad-gr"),
            pytest.param(["treewidth", "{bad_col}"], "bad_col", id="treewidth-bad-col"),
            pytest.param(["enumerate", "{bad_gr}"], "bad_gr", id="enumerate-bad-gr"),
            pytest.param(
                ["enumerate", "{good}", "--resume", "{missing}"], "missing",
                id="enumerate-missing-token",
            ),
            pytest.param(
                ["decompose", "{missing}", "{out}"], "missing", id="decompose-missing"
            ),
            pytest.param(["validate", "{bad_col}", "{bad_td}"], "bad_col", id="validate-bad-col"),
            pytest.param(["validate", "{good}", "{bad_td}"], "bad_td", id="validate-bad-td"),
            pytest.param(
                ["validate", "{good}", "{unknown_bag_td}"], "unknown_bag_td",
                id="validate-unknown-bag",
            ),
            pytest.param(["validate", "{good}", "{missing}"], "missing", id="validate-missing"),
            pytest.param(["submit", "{bad_gr}"], "bad_gr", id="submit-bad-gr"),
            pytest.param(
                ["submit", "--resume", "{missing}"], "missing", id="submit-missing-token"
            ),
            pytest.param(
                ["serve", "--token-secret", "{missing}"], "missing", id="serve-missing-secret"
            ),
        ],
    )
    def test_error_and_exit_2(self, argv, bad, gr_file, tmp_path, capsys):
        files = {
            "good": gr_file,
            "missing": tmp_path / "missing.gr",
            "bad_gr": tmp_path / "bad.gr",
            "bad_col": tmp_path / "bad.col",
            "bad_td": tmp_path / "bad.td",
            "unknown_bag_td": tmp_path / "unknown.td",
            "out": tmp_path / "out.td",
        }
        files["bad_gr"].write_text("p tw 3 1\n1 x\n")
        files["bad_col"].write_text("p edge 3 1\ne 1\n")
        files["bad_td"].write_text("s td 1 2 6\nb 1 1 2.5\n")
        files["unknown_bag_td"].write_text("s td 1 2 6\nb 1 1 2\n1 2\n")
        assert main([arg.format(**files) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[bad]}: ")
        assert "Traceback" not in err


class TestDatasets:
    def test_lists_families(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "TPC-H" in out
        assert "Pace2016-100s" in out


class TestExperiments:
    def test_figure7_report(self, tmp_path, monkeypatch, capsys):
        """The cheapest target, run for real: printed and saved under
        the working directory's ``results/``."""
        monkeypatch.chdir(tmp_path)
        assert main(["experiments", "figure7", "--budget", "0.01"]) == 0
        assert "Figure 7" in capsys.readouterr().out
        rows = json.loads((tmp_path / "results" / "figure7.json").read_text())
        assert rows and {"n", "p", "minseps", "timeout"} <= set(rows[0])

    def test_budget_reaches_drivers_only_when_set(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.bench import experiments

        monkeypatch.chdir(tmp_path)
        calls = []
        probes = [{"dataset": "d", "graph": "g", "edges": 4, "minseps": 2}]

        def recording(name, rows):
            def driver(*args, **kwargs):
                calls.append((name, kwargs))
                return rows

            monkeypatch.setattr(experiments, name, driver)

        recording("figure5", ([{"dataset": "d", "terminated": 1}], probes))
        for name in ("figure7", "table2", "figure8", "figure9"):
            recording(name, [{"row": name}])
        assert main(["experiments", "all"]) == 0
        # Unset, every driver keeps its own default budget; Figure 6
        # reuses Figure 5's one run.
        assert calls == [
            ("figure5", {}),
            ("figure7", {}),
            ("table2", {}),
            ("figure8", {}),
            ("figure9", {}),
        ]
        saved = {path.name for path in (tmp_path / "results").iterdir()}
        assert {"figure5_probes.json", "figure6.json", "figure9.json"} <= saved
        calls.clear()
        assert main(["experiments", "figure9", "figure7", "--budget", "1"]) == 0
        assert calls == [("figure7", {"budget": 1.0}), ("figure9", {"budget": 4.0})]


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

        with ServerThread() as handle:
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
