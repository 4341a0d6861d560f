"""Property-based tests for the enumeration stack (connected graphs)."""

from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.baselines.brute import minimal_triangulations_via_mis
from repro.baselines.ckk import ckk_enumeration
from repro.costs.classic import FillInCost, WidthCost
from repro.graphs.graph import Graph
from repro.pmc.enumerate import potential_maximal_cliques
from repro.pmc.oracle import potential_maximal_cliques_bruteforce
from repro.triangulation.minimality import is_minimal_triangulation


@st.composite
def connected_graphs(draw, min_n=2, max_n=8):
    """Random connected graphs: a random tree plus random extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.add((u, v))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    extra = draw(st.sets(st.sampled_from(pairs)))
    edges |= extra
    return Graph(vertices=range(n), edges=edges)


def fill_key(graph, h):
    return frozenset(
        frozenset(e) for e in h.edges() if not graph.has_edge(*e)
    )


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_pmc_enumeration_matches_oracle(g):
    assert potential_maximal_cliques(g) == potential_maximal_cliques_bruteforce(g)


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_n=7))
def test_ranked_complete_sorted_duplicate_free(g):
    expected = {fill_key(g, h) for h in minimal_triangulations_via_mis(g)}
    seen = []
    costs = []
    for r in Session().stream(g, FillInCost()):
        seen.append(fill_key(g, r.triangulation.chordal_graph))
        costs.append(r.cost)
        assert is_minimal_triangulation(g, r.triangulation.chordal_graph)
    assert len(seen) == len(set(seen))
    assert set(seen) == expected
    assert costs == sorted(costs)


@settings(max_examples=15, deadline=None)
@given(connected_graphs(max_n=7))
def test_ckk_complete_duplicate_free(g):
    expected = {fill_key(g, h) for h in minimal_triangulations_via_mis(g)}
    seen = [fill_key(g, r.triangulation) for r in ckk_enumeration(g)]
    assert len(seen) == len(set(seen))
    assert set(seen) == expected


@settings(max_examples=15, deadline=None)
@given(connected_graphs(max_n=7), st.integers(1, 4))
def test_bounded_enumeration_is_filtered_enumeration(g, bound):
    session = Session()
    full = {
        fill_key(g, r.triangulation.chordal_graph)
        for r in session.stream(g, WidthCost())
        if r.triangulation.width <= bound
    }
    bounded = {
        fill_key(g, r.triangulation.chordal_graph)
        for r in session.stream(g, WidthCost(), width_bound=bound)
    }
    assert bounded == full
