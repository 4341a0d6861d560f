"""Differential tests: the folded block DP against the generic path.

The block DP values a candidate PMC by a fold when its cost declares one
(the four registry costs) and folds the Lawler–Murty constraints of a
``ConstrainedCost`` without assembling bags.  The generic path — the cost
wrapped in a :class:`BagCost` that only delegates ``evaluate`` — assembles
every candidate's bag list and evaluates it, constraints included, exactly
as the DP did before folds existed.  Both must return the same bags and
the same float on every input: unconstrained and constrained runs, with
and without the reused unconstrained table, under width bounds that leave
blocks without a feasible candidate, and on infeasible constraint pairs.
The reused-table runs go through :func:`constrained_min_bags`, the entry
the ranked loop takes, with ``[I, X]`` as separator-index masks; over
the generic path it wraps the cost in a :class:`ConstrainedCost`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core.context import TriangulationContext
from repro.core.mintriang import constrained_min_bags, min_triangulation_and_table
from repro.costs.base import BagCost, declared_fold
from repro.costs.classic import FillInCost, SumExpBagCost
from repro.costs.constrained import ConstrainedCost
from repro.costs.registry import make_cost
from repro.graphs.generators import cycle_graph, grid_graph, petersen_graph
from repro.graphs.graph import Graph
from repro.graphs.ordering import vertex_set_sort_key

COSTS = ("width", "fill", "lex-width-fill", "sum-exp-bags")
KERNELS = ("sets", "bitset")


class BagsOnly(BagCost):
    """Delegates ``evaluate`` and declares no fold: the generic path."""

    def __init__(self, inner: BagCost) -> None:
        self.inner = inner
        self.name = f"bags-only({inner.name})"

    def evaluate(self, graph, bags):
        return self.inner.evaluate(graph, bags)


@st.composite
def connected_graphs(draw, min_n=3, max_n=9):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges |= draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
    return Graph(vertices=range(n), edges=edges)


def _solution(result):
    """``(bags, repr(value))`` of a DP result, ``None`` when infeasible:
    a :class:`Triangulation` or a ``(value, bags)`` pair from
    :func:`constrained_min_bags`."""
    if result is None:
        return None
    if isinstance(result, tuple):
        value, bags = result
        return frozenset(bags), repr(value)
    return result.bags, repr(result.cost)


def _same(folded, generic):
    """Same triangulation (bags) and the same float, or both infeasible."""
    assert _solution(folded) == _solution(generic)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("cost_name", COSTS)
@settings(max_examples=60, deadline=None)
@given(graph=connected_graphs(), data=st.data())
def test_fold_matches_generic_path(kernel, cost_name, graph, data):
    width_bound = data.draw(
        st.none() | st.integers(1, graph.num_vertices() - 1), label="bound"
    )
    context = TriangulationContext.build(
        graph, width_bound=width_bound, kernel=kernel
    )
    cost = make_cost(cost_name, graph)
    assert declared_fold(cost, graph) is not None

    first, table = min_triangulation_and_table(context, cost)
    oracle_first, oracle_table = min_triangulation_and_table(
        context, BagsOnly(cost)
    )
    _same(first, oracle_first)
    if first is not None:
        assert first.cost == cost.evaluate(graph, first.bags)

    separators = sorted(context.separators, key=vertex_set_sort_key)
    roles = data.draw(
        st.lists(
            st.sampled_from(("include", "exclude", "free")),
            min_size=len(separators),
            max_size=len(separators),
        ),
        label="roles",
    )
    include = frozenset(s for s, r in zip(separators, roles) if r == "include")
    exclude = frozenset(s for s, r in zip(separators, roles) if r == "exclude")
    constrained = ConstrainedCost(cost, include=include, exclude=exclude)
    oracle = BagsOnly(ConstrainedCost(cost, include=include, exclude=exclude))

    full, _ = min_triangulation_and_table(context, constrained)
    _same(full, min_triangulation_and_table(context, oracle)[0])
    index = context.separator_index()
    included, excluded = index.mask_of(include), index.mask_of(exclude)
    reused = constrained_min_bags(context, cost, table, included, excluded)
    _same(
        reused,
        constrained_min_bags(
            context, BagsOnly(cost), oracle_table, included, excluded
        ),
    )
    _same(reused, full)
    if reused is not None:
        # What expand_job reports: the DP's own value is the base cost.
        value, bags = reused
        assert value == cost.evaluate(graph, bags)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("cost_name", COSTS)
def test_infeasible_constraints_agree(kernel, cost_name):
    # {0, 3} and {1, 4} cross in C6: no minimal triangulation has both.
    graph = cycle_graph(6)
    context = TriangulationContext.build(graph, kernel=kernel)
    cost = make_cost(cost_name, graph)
    include = frozenset({frozenset({0, 3}), frozenset({1, 4})})
    included = context.separator_index().mask_of(include)
    for base in (cost, BagsOnly(cost)):
        _first, table = min_triangulation_and_table(context, base)
        constrained = ConstrainedCost(base, include=include)
        assert min_triangulation_and_table(context, constrained)[0] is None
        assert constrained_min_bags(context, base, table, included, 0) is None


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("cost_name", COSTS)
def test_constraint_outside_minsep(kernel, cost_name):
    """Constraints a library caller may pass that are not members of
    ``MinSep(G)``: a non-adjacent pair that separates nothing and a bag of
    the optimum (a PMC is never a minimal separator).  The run takes the
    generic path over every block.  (The reused-table entry takes masks,
    so it cannot name such a constraint.)"""
    graph = grid_graph(3, 3)
    context = TriangulationContext.build(graph, kernel=kernel)
    cost = make_cost(cost_name, graph)
    first, _table = min_triangulation_and_table(context, cost)
    corners = frozenset({(0, 0), (2, 2)})
    bag = min(first.bags, key=vertex_set_sort_key)
    separator = min(context.separators, key=vertex_set_sort_key)
    assert corners not in context.separators and bag not in context.separators
    pairs = [
        ({corners}, ()),
        ((), {bag}),
        ({corners}, {bag}),
        ({corners}, {separator}),
        ({separator}, {bag}),
    ]
    for include, exclude in pairs:
        constrained = ConstrainedCost(cost, include=include, exclude=exclude)
        oracle = BagsOnly(ConstrainedCost(cost, include=include, exclude=exclude))
        full, _ = min_triangulation_and_table(context, constrained)
        _same(full, min_triangulation_and_table(context, oracle)[0])


class HalfBagFill(FillInCost):
    """Overrides ``evaluate`` only: must not inherit ``FillInCost``'s fold."""

    name = "half-bag-fill"

    def evaluate(self, graph, bags):
        return super().evaluate(graph, bags) + 0.5 * len(bags)


@pytest.mark.parametrize("kernel", KERNELS)
def test_evaluate_override_takes_generic_path(kernel):
    graph = grid_graph(3, 3)
    cost = HalfBagFill()
    assert declared_fold(cost, graph) is None
    context = TriangulationContext.build(graph, kernel=kernel)
    result, _ = min_triangulation_and_table(context, cost)
    oracle, _ = min_triangulation_and_table(context, BagsOnly(cost))
    _same(result, oracle)
    assert result.cost == cost.evaluate(graph, result.bags)
    fill_only, _ = min_triangulation_and_table(context, FillInCost())
    assert result.cost > fill_only.cost  # valued by the override

    separator = min(context.separators, key=vertex_set_sort_key)
    constrained = ConstrainedCost(cost, exclude=[separator])
    _same(
        min_triangulation_and_table(context, constrained)[0],
        min_triangulation_and_table(context, BagsOnly(constrained))[0],
    )


def test_sum_exp_fold_only_where_exact():
    assert declared_fold(SumExpBagCost(2.0), petersen_graph()) is not None
    assert declared_fold(SumExpBagCost(2.5), petersen_graph()) is None
    big = Graph(vertices=range(60))
    assert declared_fold(SumExpBagCost(2.0), big) is None


def test_folding_costs_never_evaluate(monkeypatch):
    """Ranked enumeration under the built-in costs runs no ``evaluate``."""

    def refuse(self, graph, bags):
        raise AssertionError(f"{type(self).__name__}.evaluate called")

    expected = {
        name: Session(preprocess=False).top(petersen_graph(), name, k=12)
        for name in ("width", "fill")
    }
    monkeypatch.setattr(ConstrainedCost, "evaluate", refuse)
    monkeypatch.setattr(FillInCost, "evaluate", refuse)
    for name, want in expected.items():
        got = Session(preprocess=False).top(petersen_graph(), name, k=12)
        assert [(r.cost, r.triangulation.bags) for r in got.results] == [
            (r.cost, r.triangulation.bags) for r in want.results
        ]
