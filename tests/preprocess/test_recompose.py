"""Unit tests for cost composition, plans, and the composed stream."""

from __future__ import annotations

import pytest

from repro.api import ComposedCheckpoint, ComposedRankedStream, Session
from repro.costs import registry as cost_registry
from repro.costs.base import BagCost
from repro.graphs.generators import (
    bowtie_graph,
    cycle_graph,
    grid_graph,
    paper_example_graph,
    path_graph,
    ring_of_cycles,
    tree_of_cliques,
)
from repro.graphs.graph import Graph
from repro.preprocess import recompose
from repro.preprocess.recompose import (
    CostComposition,
    PreprocessPlan,
    composition_for,
    register_composition,
)


def signature(results):
    return [(r.cost, frozenset(r.triangulation.bags)) for r in results]


def full_signature(results):
    return [
        (r.rank, r.cost, frozenset(r.triangulation.bags)) for r in results
    ]


class TestCompositionRegistry:
    def test_builtin_declarations(self):
        assert composition_for("width").mode == "max"
        assert composition_for("fill").mode == "sum"
        assert composition_for("sum-exp-bags").duplicate_sensitive
        assert composition_for("lex-width-fill") is None  # not composable
        assert composition_for(None) is None

    def test_cost_objects_never_compose(self):
        from repro.costs.classic import WidthCost

        assert composition_for(WidthCost()) is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            CostComposition(mode="product")


class TestPlan:
    def test_trivial_plans(self):
        for g in (cycle_graph(6), grid_graph(3, 3)):
            assert PreprocessPlan.build(g).trivial

    def test_bowtie_plan_is_all_constants(self):
        plan = PreprocessPlan.build(bowtie_graph(4))
        assert not plan.trivial
        assert plan.variable_atoms == ()
        # Reductions already peel the chordal bowtie completely.
        assert set(plan.constant_bags) >= {frozenset({0, 1, 2, 3})}

    def test_ring_plan_has_variable_atoms(self):
        plan = PreprocessPlan.build(ring_of_cycles(2, 5))
        assert not plan.trivial
        assert len(plan.variable_atoms) == 2
        assert "atoms" in plan.describe()

    def test_plan_snapshot_is_independent(self):
        g = ring_of_cycles(2, 5)
        plan = PreprocessPlan.build(g)
        g.add_edge(0, 2)
        assert plan.graph != g  # the plan kept its own copy

    def test_session_caches_plans(self):
        session = Session()
        g = ring_of_cycles(2, 5)
        session.top(g, "fill", k=2)
        session.top(g, "fill", k=4)
        session.top(g, "width", k=2)  # same duplicate-insensitive plan
        assert session.cache_info()["plans"] == 1
        session.top(g, "sum-exp-bags", k=2)  # duplicate-sensitive plan
        assert session.cache_info()["plans"] == 2


class TestComposedStream:
    def test_product_counts_and_order(self):
        # Two C5 atoms: 5 x 5 = 25 answers, non-decreasing cost.
        session = Session()
        results = list(session.stream(ring_of_cycles(2, 5), "fill"))
        assert len(results) == 25
        costs = [r.cost for r in results]
        assert costs == sorted(costs)
        assert costs[0] == 4.0  # 2 fill edges per pentagon
        assert len({frozenset(r.triangulation.bags) for r in results}) == 25
        assert [r.rank for r in results] == list(range(25))

    def test_composed_stream_type_and_stats(self):
        session = Session()
        g = ring_of_cycles(2, 4)
        stream = session.stream(g, "width")
        assert isinstance(stream, ComposedRankedStream)
        assert stream.pieces == 2
        results = list(stream)
        assert len(results) == 4  # 2 x 2 C4 triangulations
        assert stream.exhausted
        response = session.top(g, "width", k=10)
        assert response.stats.preprocessed
        assert response.stats.engine == "composed"
        assert response.stats.expansions > 0

    def test_triangulations_live_on_the_original_graph(self):
        session = Session()
        g = paper_example_graph()
        for r in session.stream(g, "fill"):
            assert r.triangulation.graph == g
            # Every bag is a subset of the original vertex set.
            for bag in r.triangulation.bags:
                assert bag <= g.vertex_set()

    def test_chordal_graph_single_answer(self):
        session = Session()
        for g in (bowtie_graph(4), tree_of_cliques(5, 4), path_graph(6)):
            results = list(session.stream(g, "sum-exp-bags"))
            assert len(results) == 1
            assert results[0].triangulation.chordal_graph == g

    def test_width_bound_filters_product(self):
        session = Session()
        g = ring_of_cycles(2, 5)
        direct = Session(preprocess=False)
        for bound in (1, 2, 3):
            a = signature(session.stream(g, "width", width_bound=bound))
            b = signature(direct.stream(g, "width", width_bound=bound))
            assert [c for c, _ in a] == [c for c, _ in b]
            assert {bags for _, bags in a} == {bags for _, bags in b}

    def test_width_bound_infeasible_constant(self):
        # The bowtie forces a 4-clique bag; width bound 2 kills it all.
        session = Session()
        results = list(
            session.stream(bowtie_graph(4), "width", width_bound=2)
        )
        assert results == []

    def test_disconnected_product(self):
        session = Session()
        g = Graph(edges=[(0, 1), (1, 2), (2, 0)])  # triangle...
        g.add_edges([(10, 11), (11, 12), (12, 13), (13, 10)])  # ...and C4
        results = list(session.stream(g, "fill"))
        assert len(results) == 2  # 1 triangle x 2 C4 triangulations
        assert all(
            frozenset({0, 1, 2}) in r.triangulation.bags for r in results
        )

    def test_preprocess_flag_per_request_overrides_session(self):
        g = paper_example_graph()
        on_session = Session()
        assert on_session.top(g, "width", k=1).stats.preprocessed
        assert not on_session.top(
            g, "width", k=1, preprocess=False
        ).stats.preprocessed
        off_session = Session(preprocess=False)
        assert not off_session.top(g, "width", k=1).stats.preprocessed
        assert off_session.top(
            g, "width", k=1, preprocess=True
        ).stats.preprocessed

    def test_diverse_and_decompositions_modes(self):
        session = Session()
        g = ring_of_cycles(2, 5)
        diverse = session.diverse(g, "fill", k=3, min_distance=1)
        assert len(diverse.results) == 3
        decomps = session.decompositions(g, "fill", k=5)
        assert len(decomps.results) == 5
        assert decomps.stats.preprocessed


class TestComposedCheckpoint:
    def test_every_pause_point(self):
        session = Session()
        g = ring_of_cycles(2, 5)
        uninterrupted = full_signature(session.stream(g, "fill"))
        assert len(uninterrupted) == 25
        for pause in range(len(uninterrupted) + 1):
            stream = session.stream(g, "fill")
            head = [next(stream) for _ in range(pause)]
            token = stream.checkpoint()
            stream.close()
            assert isinstance(token, ComposedCheckpoint)
            tail = list(session.resume_stream(token))
            assert (
                full_signature(head) + full_signature(tail) == uninterrupted
            ), pause

    def test_resume_in_cold_session_from_bytes(self):
        emitting = Session()
        g = ring_of_cycles(2, 5)
        uninterrupted = full_signature(emitting.stream(g, "fill"))
        stream = emitting.stream(g, "fill")
        head = [next(stream) for _ in range(7)]
        blob = stream.checkpoint().to_bytes()
        stream.close()
        cold = Session()  # no cached contexts, no plan, no graph object
        tail = list(cold.resume_stream(blob))
        assert full_signature(head) + full_signature(tail) == uninterrupted

    def test_paginated_top_chains(self):
        session = Session()
        g = ring_of_cycles(2, 5)
        page1 = session.top(g, "fill", k=10)
        page2 = session.resume(page1.checkpoint, k=10)
        page3 = session.resume(page2.checkpoint, k=10)
        combined = full_signature(
            list(page1.results) + list(page2.results) + list(page3.results)
        )
        assert combined == full_signature(session.stream(g, "fill"))
        assert page3.stats.exhausted

    def test_exhausted_token_resumes_without_context_builds(self):
        """Resuming a fully-drained composed token must not rebuild any
        atom context just to emit nothing (regression: it used to run
        the whole per-atom initialization for an empty frontier)."""
        emitting = Session()
        g = ring_of_cycles(2, 5)
        stream = emitting.stream(g, "fill")
        drained = list(stream)
        assert len(drained) == 25
        token = stream.checkpoint()
        assert token.exhausted
        cold = Session()
        assert list(cold.resume_stream(token.to_bytes())) == []
        assert cold.cache_info()["builds"] == 0

    def test_resume_rejects_other_cost(self):
        session = Session()
        stream = session.stream(ring_of_cycles(2, 4), "fill")
        next(stream)
        token = stream.checkpoint()
        stream.close()
        with pytest.raises(ValueError, match="cost"):
            session.resume_stream(token, cost="width")

    def test_corrupted_token_rejected(self):
        session = Session()
        stream = session.stream(ring_of_cycles(2, 4), "fill")
        next(stream)
        token = stream.checkpoint()
        stream.close()
        import dataclasses

        forged = dataclasses.replace(token, fingerprint="0" * 64)
        with pytest.raises(ValueError, match="corrupted"):
            session.resume_stream(forged)


class _BagCountCost(BagCost):
    """Number of bags — composes additively, but only when the lift never
    drops a shadowed bag (duplicate sensitive)."""

    name = "bag-count"

    def evaluate(self, graph, bags):
        return float(len(bags))


class TestCustomCompositions:
    @pytest.fixture
    def bag_count_cost(self):
        cost_registry.register_cost("bag-count", lambda graph: _BagCountCost())
        try:
            yield
        finally:
            cost_registry._FACTORIES.pop("bag-count", None)
            recompose._COMPOSITIONS.pop("bag-count", None)

    def test_sound_registration(self, bag_count_cost):
        register_composition("bag-count", "sum", duplicate_sensitive=True)
        on = Session()
        off = Session(preprocess=False)
        for g in (paper_example_graph(), ring_of_cycles(2, 4)):
            a = signature(on.stream(g, "bag-count"))
            b = signature(off.stream(g, "bag-count"))
            assert [c for c, _ in a] == [c for c, _ in b]
            assert {bags for _, bags in a} == {bags for _, bags in b}

    def test_unsound_registration_detected(self, bag_count_cost):
        # Lying about duplicate sensitivity: the reduction lift on a
        # triangle shadows a bag, the composed value disagrees with the
        # recomputed cost, and the stream refuses to emit a wrong answer.
        register_composition("bag-count", "sum", duplicate_sensitive=False)
        session = Session()
        from repro.graphs.generators import complete_graph

        with pytest.raises(RuntimeError, match="composition"):
            list(session.stream(complete_graph(3), "bag-count"))
