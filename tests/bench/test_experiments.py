"""Integration tests for the experiment drivers (tiny budgets)."""

from repro.bench.experiments import (
    ckk_run,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    ranked_run,
    table2,
)
from repro.graphs.generators import cycle_graph


class TestRunners:
    def test_ranked_run_on_paper_graph(self, paper_graph):
        run = ranked_run("paper", paper_graph, "width", budget=10.0)
        assert run.count == 2
        assert run.exhausted
        widths = [r.width for r in run.results]
        assert widths == [2, 3]

    def test_ckk_run_on_paper_graph(self, paper_graph):
        run = ckk_run("paper", paper_graph, budget=10.0)
        assert run.count == 2
        assert run.init_seconds == 0.0

    def test_ranked_fill_run(self):
        run = ranked_run("c6", cycle_graph(6), "fill", budget=10.0)
        assert run.count == 14
        fills = [r.fill for r in run.results]
        assert fills == sorted(fills)


class TestDrivers:
    def test_figure5_subset(self):
        summary, probes = figure5(
            ms_budget=0.5, pmc_budget=1.0, datasets=["TPC-H"]
        )
        assert summary[0]["dataset"] == "TPC-H"
        assert summary[0]["terminated"] == 22
        assert len(probes) == 22

    def test_figure6_filters_intractable(self):
        probes = [
            {"dataset": "d", "graph": "a", "edges": 5, "minseps": 3},
            {"dataset": "d", "graph": "b", "edges": 9, "minseps": None},
        ]
        points = figure6(probes)
        assert len(points) == 1

    def test_figure7_tiny(self):
        rows = figure7(sizes=(8,), draws=1, budget=1.0)
        assert len(rows) == 8
        assert {r["p"] for r in rows} == {round(k / 8, 4) for k in range(1, 9)}

    def test_table2_tiny(self):
        rows = table2(
            budget=1.0,
            datasets=["ObjectDetection"],
            ms_budget=0.5,
            pmc_budget=1.0,
            max_graphs_per_dataset=1,
        )
        assert len(rows) == 2
        assert rows[0]["algorithm"] == "RankedTriang"
        assert rows[1]["algorithm"] == "CKK"
        assert rows[1]["init"] == 0.0

    def test_figure8_tiny(self):
        rows = figure8(budget=1.0, sizes=(10,), draws=1, probabilities=(0.3, 0.7))
        assert rows
        for r in rows:
            assert r["n"] == 10

    def test_figure9_explicit_cases(self, paper_graph):
        rows = figure9(
            budget=1.0, interval=0.5, case_graphs=[("paper", paper_graph)]
        )
        algos = {r["algorithm"] for r in rows}
        assert algos == {"RankedTriang", "CKK"}
        ranked_final = [
            r
            for r in rows
            if r["algorithm"] == "RankedTriang" and r["time"] >= 1.0
        ][-1]
        assert ranked_final["results"] == 2
        assert ranked_final["min_width"] == 2
