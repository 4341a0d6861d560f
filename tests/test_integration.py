"""End-to-end integration tests across the full stack.

These exercise realistic multi-module pipelines: dataset → context →
ranked enumeration → decomposition validation → baseline parity, i.e. the
exact paths the benchmarks and examples run, at assertion strength.
"""

import itertools


from repro import (
    FillInCost,
    LexWidthFillCost,
    RankedStream,
    TriangulationContext,
    WidthCost,
    ckk_enumeration,
    minimum_fill_in,
    treewidth,
)
from repro.baselines.brute import minimal_triangulations_via_mis
from repro.triangulation import is_minimal_triangulation, lb_triang, mcs_m
from repro.workloads.tpch import tpch_instances
from repro.workloads.pace import control_flow_graph
from tests.conftest import fill_key


class TestTpchPipeline:
    """The paper: 'computing all minimal triangulations [of TPC-H] is a
    matter of a few seconds' — we assert exact three-way parity."""

    def test_full_parity_on_all_queries(self, session):
        for name, graph in tpch_instances():
            if graph.num_vertices() < 2 or not graph.is_connected():
                continue
            oracle = {fill_key(graph, h) for h in minimal_triangulations_via_mis(graph)}
            ranked = {
                fill_key(graph, r.triangulation.chordal_graph)
                for r in session.stream(graph, FillInCost())
            }
            ckk = {
                fill_key(graph, r.triangulation) for r in ckk_enumeration(graph)
            }
            assert ranked == oracle == ckk, name

    def test_decompositions_usable_downstream(self, session):
        # For every query: the best decomposition is valid, proper, and of
        # width bounded by the query size.
        for name, graph in tpch_instances():
            if graph.num_vertices() < 2 or not graph.is_connected():
                continue
            best = next(
                iter(session.decomposition_stream(graph, WidthCost()))
            )
            assert best.decomposition.is_valid(graph), name
            assert best.decomposition.is_proper(graph), name
            assert best.decomposition.width <= graph.num_vertices() - 1


class TestControlFlowPipeline:
    def test_bounds_sandwich_exact_treewidth(self):
        from repro.graphs.chordal import treewidth_chordal

        for seed in range(5):
            graph = control_flow_graph(16, seed=seed)
            exact = treewidth(graph)
            upper = treewidth_chordal(lb_triang(graph))
            assert exact <= upper, seed

    def test_heuristics_vs_exact_fill(self):
        for seed in range(5):
            graph = control_flow_graph(14, seed=seed)
            exact = minimum_fill_in(graph)
            lb_fill = lb_triang(graph).num_edges() - graph.num_edges()
            mcs_fill = mcs_m(graph)[0].num_edges() - graph.num_edges()
            assert exact <= lb_fill
            assert exact <= mcs_fill


class TestSharedContextConsistency:
    def test_three_costs_one_context(self):
        graph = control_flow_graph(15, seed=2)
        ctx = TriangulationContext.build(graph)
        by_width = list(
            itertools.islice(RankedStream.start(ctx, WidthCost()), 8)
        )
        by_fill = list(
            itertools.islice(RankedStream.start(ctx, FillInCost()), 8)
        )
        by_lex = list(
            itertools.islice(
                RankedStream.start(ctx, LexWidthFillCost(graph)), 8
            )
        )
        # All produce genuinely minimal triangulations of the same graph.
        for results in (by_width, by_fill, by_lex):
            for r in results:
                assert is_minimal_triangulation(
                    graph, r.triangulation.chordal_graph
                )
        # Lex-first result is simultaneously width-optimal...
        assert by_lex[0].triangulation.width == by_width[0].triangulation.width
        # ...and fill-optimal among width-optimal results.
        width_opt_fills = [
            r.triangulation.fill_in()
            for r in by_width
            if r.triangulation.width == by_width[0].triangulation.width
        ]
        assert by_lex[0].triangulation.fill_in() <= min(width_opt_fills)


class TestPaperExampleGolden:
    """Every number the paper states about its running example."""

    def test_figure1_and_section2(self, session, paper_graph):
        # Example 2.4: exactly these three minimal separators.
        from repro import minimal_separators

        assert minimal_separators(paper_graph) == {
            frozenset({"w1", "w2", "w3"}),
            frozenset({"u", "v"}),
            frozenset({"v"}),
        }
        # Figure 1(b): exactly two minimal triangulations, H1 and H2.
        results = list(session.stream(paper_graph, WidthCost()))
        assert len(results) == 2
        h2, h1 = results[0].triangulation, results[1].triangulation
        # T2 (clique tree of H2) has bags {u,v,wi} and {v,v'}.
        assert h2.bags == frozenset(
            [
                frozenset({"u", "v", "w1"}),
                frozenset({"u", "v", "w2"}),
                frozenset({"u", "v", "w3"}),
                frozenset({"v", "v'"}),
            ]
        )
        # T1 (clique tree of H1) has bags {u,w*}, {v,w*}, {v,v'}.
        assert h1.bags == frozenset(
            [
                frozenset({"u", "w1", "w2", "w3"}),
                frozenset({"v", "w1", "w2", "w3"}),
                frozenset({"v", "v'"}),
            ]
        )
        # Theorem 2.5 round trip: MinSep(H) are maximal parallel sets.
        assert h1.minimal_separators == frozenset(
            [frozenset({"w1", "w2", "w3"}), frozenset({"v"})]
        )
        assert h2.minimal_separators == frozenset(
            [frozenset({"u", "v"}), frozenset({"v"})]
        )
