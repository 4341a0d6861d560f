"""Session-layer tests: context cache, typed responses, mode dispatch."""

from __future__ import annotations

import pytest

import repro.api.session as session_mod
from repro.api import (
    EnumerationRequest,
    EnumerationResponse,
    RankedStream,
    Session,
)
from repro.core.context import TriangulationContext
from repro.costs.classic import FillInCost, WidthCost
from repro.graphs.generators import (
    bowtie_graph,
    cycle_graph,
    paper_example_graph,
    path_graph,
    petersen_graph,
    ring_of_cycles,
)
from repro.graphs.graph import Graph
from repro.graphs.io import write_graph


@pytest.fixture
def build_counter(monkeypatch):
    """Count TriangulationContext.build invocations."""
    calls = []
    original = TriangulationContext.build

    def counting(graph, *args, **kwargs):
        calls.append(graph)
        return original(graph, *args, **kwargs)

    monkeypatch.setattr(TriangulationContext, "build", staticmethod(counting))
    return calls


class TestContextCache:
    def test_one_build_per_graph_fingerprint(self, build_counter):
        """Equal-content graphs share one initialization build."""
        session = Session()
        g1 = cycle_graph(6)
        g2 = cycle_graph(6)  # distinct object, same content
        assert g1 is not g2
        session.top(g1, "width", k=2)
        session.top(g2, "fill", k=2)
        session.diverse(g1, "width", k=2)
        list(session.stream(g2, "width"))
        assert len(build_counter) == 1

    def test_one_fingerprint_per_request(self, monkeypatch):
        """A first page and a resume each hash their graph once: the
        plan, the context entry and the stream share the value."""
        calls = []
        original = session_mod.graph_fingerprint

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(session_mod, "graph_fingerprint", counting)
        session = Session()
        stream = session.stream(petersen_graph(), "width")
        assert session.plan_for(petersen_graph()).trivial
        next(stream)
        token = stream.checkpoint().to_bytes()
        assert len(calls) == 2  # the stream, then plan_for above
        next(session.resume_stream(token))
        # Warm: the token's graph section equals the context's encoding,
        # so the graph is neither rebuilt nor hashed.
        assert len(calls) == 2
        next(Session().resume_stream(token))
        assert len(calls) == 3  # cold: the restored graph, hashed once

    def test_distinct_content_builds_separately(self, build_counter):
        session = Session()
        session.top(cycle_graph(5), "width", k=1)
        session.top(cycle_graph(6), "width", k=1)
        assert len(build_counter) == 2

    def test_mutation_misses_the_cache(self, build_counter):
        """A mutated graph must not be served a stale context."""
        # preprocess off: the chorded cycle decomposes into atoms, which
        # would build one context per atom and blur the count under test.
        session = Session(preprocess=False)
        g = cycle_graph(6)
        first = session.top(g, "fill", k=1)
        g.add_edge(1, 4)  # chord: different graph now
        second = session.top(g, "fill", k=1)
        assert len(build_counter) == 2
        assert first.stats.fingerprint != second.stats.fingerprint

    def test_cached_entry_survives_caller_mutation(self):
        """The cache snapshots the graph at build time: mutating the
        caller's object afterwards cannot poison the entry that equal-
        content graphs are served from."""
        session = Session()
        g = cycle_graph(6)
        baseline = [
            (r.cost, frozenset(r.triangulation.bags))
            for r in session.top(g, "fill", k=3).results
        ]
        g.add_edge(1, 4)  # mutate the object the entry was built from
        fresh = cycle_graph(6)
        assert session.context(fresh) == session.context(fresh)
        assert session.context(fresh).graph == fresh  # not the mutated one
        again = [
            (r.cost, frozenset(r.triangulation.bags))
            for r in session.top(fresh, "fill", k=3).results
        ]
        assert again == baseline

    def test_width_bound_is_part_of_the_key(self, build_counter):
        session = Session()
        g = cycle_graph(6)
        session.top(g, "width", k=1)
        session.top(g, "width", k=1, width_bound=3)
        assert len(build_counter) == 2

    def test_lru_eviction(self, build_counter):
        session = Session(max_contexts=2)
        g5, g6, g7 = cycle_graph(5), cycle_graph(6), cycle_graph(7)
        session.top(g5, "width", k=1)
        session.top(g6, "width", k=1)
        session.top(g7, "width", k=1)  # evicts g5
        assert session.cache_info()["contexts"] == 2
        session.top(g5, "width", k=1)  # rebuilt
        assert len(build_counter) == 4

    def test_cache_info_counters(self):
        session = Session()
        g = cycle_graph(6)
        session.top(g, "width", k=1)
        session.top(g, "width", k=1)
        info = session.cache_info()
        assert info["builds"] == 1
        assert info["hits"] >= 1
        assert info["contexts"] == 1

    def test_prebuilt_context_argument_is_used(self):
        g = paper_example_graph()
        ctx = TriangulationContext.build(g)
        results = list(RankedStream.start(ctx, WidthCost()))
        assert len(results) == 2
        assert results[0].triangulation.graph is ctx.graph

    def test_prepared_table_cached_per_cost_spec(self, monkeypatch):
        """The unconstrained DP runs once per (context, registry cost)."""
        calls = []
        original = session_mod.min_triangulation_and_table

        def counting(context, cost, *args, **kwargs):
            calls.append(cost)
            return original(context, cost, *args, **kwargs)

        monkeypatch.setattr(session_mod, "min_triangulation_and_table", counting)
        session = Session()
        g = cycle_graph(6)
        session.top(g, "width", k=1)
        session.top(g, "width", k=3)
        session.top(g, "fill", k=1)
        assert len(calls) == 2  # one per registry spec

    def test_close_clears_cache(self):
        session = Session()
        session.top(cycle_graph(5), "width", k=1)
        session.close()
        assert session.cache_info()["contexts"] == 0


class TestRankedResponses:
    def test_top_results_and_stats(self):
        session = Session()
        g = paper_example_graph()
        response = session.top(g, "width", k=10)
        assert isinstance(response, EnumerationResponse)
        assert [r.cost for r in response.results] == [2.0, 3.0]
        assert [r.rank for r in response.results] == [0, 1]
        stats = response.stats
        assert stats.mode == "ranked"
        assert stats.cost_spec == "width"
        assert stats.emitted == 2
        assert stats.exhausted and response.exhausted
        assert stats.expansions > 0
        assert len(stats.fingerprint) == 64
        assert not stats.context_cached
        assert session.top(g, "width", k=10).stats.context_cached

    @pytest.mark.parametrize(
        "graph, preprocess, preprocessed",
        [
            (ring_of_cycles(2, 5), True, True),
            (cycle_graph(7), False, False),
        ],
        ids=["composed", "direct"],
    )
    def test_one_open_record_on_every_path(self, graph, preprocess, preprocessed):
        """``context_cached`` reads True only when every cache entry the
        page opened was warm; ``init_seconds`` is those entries' build
        time, warm or not.  A fresh page, a repeat, a resume in the same
        session and a resume in a new one, direct and composed."""
        session = Session(preprocess=preprocess)
        cold = session.top(graph, "fill", k=3)
        warm = session.top(graph, "fill", k=3)
        resumed = session.resume(cold.checkpoint.to_bytes(), k=3)
        elsewhere = Session().resume(cold.checkpoint.to_bytes(), k=3)
        pages = [cold, warm, resumed, elsewhere]
        assert [p.stats.preprocessed for p in pages] == [preprocessed] * 4
        assert [p.stats.context_cached for p in pages] == [False, True, True, False]
        assert cold.stats.init_seconds > 0
        assert warm.stats.init_seconds == cold.stats.init_seconds
        assert resumed.stats.init_seconds == cold.stats.init_seconds
        assert elsewhere.stats.init_seconds > 0

    def test_a_plan_with_no_variable_atom_opens_no_context(self):
        """``bowtie_graph(4)`` is two cliques: every bag is forced, the
        composed stream opens no cache entry, and the record reads cold
        with no init time on every call."""
        session = Session()
        graph = bowtie_graph(4)
        first = session.top(graph, "fill", k=3)
        pages = [
            first,
            session.top(graph, "fill", k=3),
            session.resume(first.checkpoint.to_bytes()),
            Session().resume(first.checkpoint.to_bytes()),
        ]
        assert first.stats.preprocessed and len(first.results) == 1
        for page in pages:
            assert page.stats.context_cached is False
            assert page.stats.init_seconds == 0.0

    def test_k_zero_short_circuits(self):
        session = Session()
        g = Graph(edges=[(1, 2), (3, 4)])  # disconnected!
        response = session.top(g, "width", k=0)
        assert response.results == ()
        assert session.cache_info()["contexts"] == 0

    def test_k_caps_a_longer_run(self):
        session = Session()
        response = session.top(cycle_graph(6), "fill", k=3)
        assert len(response.results) == 3
        assert not response.exhausted
        # A cycle has no clique separator, so this live run is direct.
        assert not response.stats.preprocessed
        assert response.stats.engine == "serial"

    def test_time_budget_marks_timeout(self):
        session = Session()
        response = session.top(
            cycle_graph(7), "fill", k=None, time_budget=1e-9
        )
        # The budget is checked before every answer, the first included,
        # as the service checks its deadline: the page is cut at rank 0.
        assert response.stats.timed_out
        assert response.results == ()
        assert response.checkpoint is not None
        assert response.checkpoint.next_rank == 0

    def test_stream_empty_graph(self):
        session = Session()
        assert list(session.stream(Graph(), "width")) == []

    def test_stream_disconnected_rejected_without_preprocess(self):
        """The direct pipeline still requires a connected graph."""
        session = Session(preprocess=False)
        with pytest.raises(ValueError, match="connected"):
            session.stream(Graph(edges=[(1, 2), (3, 4)]), "width")
        # A cost *object* bypasses preprocessing, so the default session
        # rejects disconnected graphs there too.
        with pytest.raises(ValueError, match="connected"):
            Session().stream(Graph(edges=[(1, 2), (3, 4)]), WidthCost())

    def test_stream_disconnected_served_by_preprocessing(self):
        """Component splitting is a reduction: the default session now
        enumerates disconnected graphs, ranked over the whole graph."""
        session = Session()
        results = list(session.stream(Graph(edges=[(1, 2), (3, 4)]), "width"))
        assert len(results) == 1
        assert results[0].cost == 1.0
        assert results[0].triangulation.bags == frozenset(
            [frozenset({1, 2}), frozenset({3, 4})]
        )
        # Two 4-cycles: 2 x 2 combinations, ranked over the union.
        g = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0),
                         (4, 5), (5, 6), (6, 7), (7, 4)])
        response = session.top(g, "fill", k=None)
        assert [r.cost for r in response.results] == [2.0, 2.0, 2.0, 2.0]
        assert response.stats.preprocessed
        assert len({frozenset(r.triangulation.bags) for r in response.results}) == 4

    def test_width_bound_infeasible(self):
        session = Session()
        response = session.top(cycle_graph(6), "width", k=5, width_bound=1)
        assert response.results == ()
        assert response.exhausted

    def test_cost_object_accepted(self):
        session = Session()
        response = session.top(paper_example_graph(), FillInCost(), k=2)
        assert [r.cost for r in response.results] == [1.0, 3.0]
        assert response.stats.cost_spec is None

    def test_graph_from_path(self, tmp_path):
        path = tmp_path / "c6.gr"
        write_graph(cycle_graph(6), path)
        session = Session()
        response = session.top(str(path), "width", k=2)
        assert len(response.results) == 2


class TestDiverseMode:
    def test_registry_name_matches_cost_object(self):
        """``"fill"`` and ``FillInCost()`` keep the same diverse page, on a
        fresh session and on the session that served the name."""
        g = cycle_graph(7)
        shared = Session()
        by_name = shared.diverse(g, "fill", k=6, min_distance=4)
        for session in (Session(), shared):
            by_object = session.diverse(g, FillInCost(), k=6, min_distance=4)
            assert [t.bags for t in by_object.results] == [
                t.bags for t in by_name.results
            ]
        assert by_name.stats.mode == "diverse"

    def test_width_bound_threads_through(self):
        session = Session()
        unbounded = session.diverse(cycle_graph(6), "fill", k=4, min_distance=1)
        bounded = session.diverse(
            cycle_graph(6), "fill", k=4, min_distance=1, width_bound=1
        )
        assert len(unbounded.results) == 4
        assert bounded.results == ()  # C6 needs width 2

    def test_scan_limit(self):
        session = Session()
        response = session.diverse(
            cycle_graph(7), "fill", k=10, min_distance=100, scan_limit=5
        )
        assert len(response.results) == 1

    def test_requires_k(self):
        session = Session()
        with pytest.raises(ValueError, match="requires k"):
            session.execute(
                EnumerationRequest(graph=cycle_graph(5), mode="diverse", k=None)
            )


class TestDecompositionsMode:
    def test_registry_name_matches_cost_object(self):
        """``"width"`` and ``WidthCost()`` rank the same decompositions, on
        a fresh session and on the session that served the name."""
        g = paper_example_graph()
        shared = Session()
        by_name = shared.decompositions(g, "width", k=6)
        for session in (Session(), shared):
            by_object = session.decompositions(g, WidthCost(), k=6)
            assert [r.decomposition.bag_set() for r in by_name.results] == [
                r.decomposition.bag_set() for r in by_object.results
            ]
        assert [r.rank for r in by_name.results] == list(
            range(len(by_object.results))
        )

    def test_per_triangulation_cap(self):
        session = Session()
        response = session.decompositions(
            paper_example_graph(), "width", k=10, per_triangulation=1
        )
        # One bag-distinct decomposition per minimal triangulation.
        assert len(response.results) == 2
        assert response.stats.mode == "decompositions"

    def test_single_chordal_graph(self):
        session = Session()
        response = session.decompositions(path_graph(5), "width", k=3)
        assert len(response.results) >= 1
        td = response.results[0].decomposition
        assert td.is_valid(path_graph(5))

    @pytest.mark.parametrize("preprocess", [True, False])
    def test_disconnected_graph_refused_at_open(self, preprocess):
        """Two disjoint 4-cycles have clique forests, not clique trees:
        both entry points refuse them with one message before any plan
        or context is built, whether preprocessing is on or off."""
        two_squares = Graph(
            edges=[(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5)]
        )
        session = Session()
        message = "decompositions mode requires a connected graph"
        with pytest.raises(ValueError, match=message):
            session.decompositions(two_squares, "width", k=3, preprocess=preprocess)
        with pytest.raises(ValueError, match=message):
            session.decomposition_stream(two_squares, "width", preprocess=preprocess)
        info = session.cache_info()
        assert info["builds"] == 0
        assert info["plans"] == 0


class TestExecuteDispatch:
    def test_request_roundtrip(self):
        session = Session()
        request = EnumerationRequest(
            graph=paper_example_graph(), cost="fill", k=1, mode="ranked"
        )
        response = session.execute(request)
        assert response.results[0].cost == 1.0
        assert response.checkpoint is not None

    def test_triangulations_property_uniform(self):
        session = Session()
        g = paper_example_graph()
        for mode in ("ranked", "diverse", "decompositions"):
            request = EnumerationRequest(graph=g, cost="width", k=2, mode=mode)
            response = session.execute(request)
            for tri in response.triangulations:
                assert tri.bags  # plain Triangulation whatever the mode
