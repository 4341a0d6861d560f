"""Tests for the time-budgeted experiment harness."""

from repro.bench.harness import (
    MS_TERMINATED,
    NOT_TERMINATED,
    TERMINATED,
    TimedResult,
    probe_tractability,
    run_with_budget,
)
from repro.graphs.generators import cycle_graph, erdos_renyi, path_graph
from repro.separators.berry import SeparatorLimitExceeded


class TestProbe:
    def test_easy_graph_terminates(self):
        probe = probe_tractability("p6", path_graph(6), ms_budget=5, pmc_budget=5)
        assert probe.status == TERMINATED
        assert probe.num_separators == 4
        assert probe.num_pmcs == 5

    def test_hard_graph_fails_ms(self):
        g = erdos_renyi(40, 0.3, seed=1)
        probe = probe_tractability("hard", g, ms_budget=0.05, pmc_budget=0.05)
        assert probe.status in (NOT_TERMINATED, MS_TERMINATED)

    def test_pmc_budget_distinguishes(self):
        # Generous MS budget + zero PMC budget → MS_TERMINATED.
        g = erdos_renyi(16, 0.3, seed=2)
        probe = probe_tractability("mid", g, ms_budget=30, pmc_budget=0.0)
        assert probe.status == MS_TERMINATED
        assert probe.num_separators is not None
        assert probe.num_pmcs is None

    def test_counts_recorded(self):
        probe = probe_tractability("c6", cycle_graph(6), ms_budget=5, pmc_budget=5)
        assert probe.vertices == 6
        assert probe.edges == 6
        assert probe.num_separators == 9


class TestRunWithBudget:
    def _stream(self, times):
        for i, t in enumerate(times):
            yield TimedResult(elapsed_seconds=t, width=i, fill=i)

    def test_cuts_at_budget(self):
        run = run_with_budget(
            "alg", "g", lambda: self._stream([0.1, 0.5, 2.5, 3.0]), budget_seconds=1.0
        )
        assert run.count == 2
        assert not run.exhausted

    def test_exhausted_flag(self):
        run = run_with_budget(
            "alg", "g", lambda: self._stream([0.1, 0.2]), budget_seconds=1.0
        )
        assert run.count == 2
        assert run.exhausted

    def test_max_results(self):
        run = run_with_budget(
            "alg",
            "g",
            lambda: self._stream([0.1, 0.2, 0.3]),
            budget_seconds=10,
            max_results=2,
        )
        assert run.count == 2

    def test_failure_capture(self):
        def boom():
            raise SeparatorLimitExceeded("too many")
            yield  # pragma: no cover

        run = run_with_budget("alg", "g", boom, budget_seconds=1.0)
        assert run.failed == "too many"
        assert run.count == 0
