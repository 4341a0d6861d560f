"""Validation tests for the typed request/response surface."""

from __future__ import annotations

import pytest

from repro.api import EnumerationRequest, Session
from repro.costs.classic import WidthCost
from repro.graphs.generators import cycle_graph, paper_example_graph


class TestRequestValidation:
    def test_defaults(self):
        request = EnumerationRequest(graph=cycle_graph(4))
        assert request.mode == "ranked"
        assert request.cost == "width"
        assert request.k is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            EnumerationRequest(graph=cycle_graph(4), mode="fastest")

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            EnumerationRequest(graph=cycle_graph(4), k=-1)

    def test_bad_cost_type_rejected(self):
        with pytest.raises(TypeError, match="cost must be"):
            EnumerationRequest(graph=cycle_graph(4), cost=3.14)

    def test_min_distance_rejected(self):
        with pytest.raises(ValueError, match="min_distance"):
            EnumerationRequest(graph=cycle_graph(4), min_distance=0)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="time_budget"):
            EnumerationRequest(graph=cycle_graph(4), time_budget=0)
        with pytest.raises(ValueError, match="time_budget must be > 0, got nan"):
            EnumerationRequest(graph=cycle_graph(4), time_budget=float("nan"))
        for field in ("per_triangulation", "scan_limit"):
            for value in (-1, 0):
                with pytest.raises(
                    ValueError, match=f"{field} must be >= 1, got {value}"
                ):
                    EnumerationRequest(graph=cycle_graph(4), **{field: value})

    def test_cost_spec_property(self):
        assert EnumerationRequest(graph=cycle_graph(4), cost="fill").cost_spec == "fill"
        assert (
            EnumerationRequest(graph=cycle_graph(4), cost=WidthCost()).cost_spec
            is None
        )

    def test_with_functional_update(self):
        request = EnumerationRequest(graph=cycle_graph(4), cost="fill", k=5)
        paged = request.with_(k=10)
        assert paged.k == 10 and paged.cost == "fill"
        assert request.k == 5  # original untouched


class TestResponseShape:
    def test_container_protocol(self):
        response = Session().top(paper_example_graph(), "width", k=10)
        assert len(response) == 2
        assert bool(response)
        assert [r.rank for r in response] == [0, 1]

    def test_empty_response_is_falsy(self):
        response = Session().top(cycle_graph(6), "width", k=5, width_bound=1)
        assert not response
        assert len(response) == 0

    def test_stats_are_frozen(self):
        response = Session().top(paper_example_graph(), "width", k=1)
        with pytest.raises(AttributeError):
            response.stats.emitted = 99
