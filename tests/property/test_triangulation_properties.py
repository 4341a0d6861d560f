"""Property-based tests for triangulation construction."""

from hypothesis import given, settings, strategies as st

from repro.graphs.chordal import is_chordal, maximal_cliques_chordal
from repro.graphs.cliquetree import minimal_separators_chordal
from repro.graphs.graph import Graph
from repro.pmc.predicate import is_pmc
from repro.triangulation.lb_triang import lb_triang
from repro.triangulation.mcs_m import mcs_m
from repro.triangulation.minimality import is_minimal_triangulation


@st.composite
def small_graphs(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_n, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph(vertices=range(n), edges=edges)


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_lb_triang_minimal(g):
    h = lb_triang(g)
    assert is_minimal_triangulation(g, h)


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_mcs_m_minimal(g):
    h, _meo = mcs_m(g)
    assert is_minimal_triangulation(g, h)


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_triangulators_agree_on_chordal_inputs(g):
    if not is_chordal(g):
        return
    assert lb_triang(g) == g
    assert mcs_m(g)[0] == g


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_maximal_cliques_of_triangulation_are_pmcs(g):
    """Definition of PMC: maximal cliques of minimal triangulations."""
    h = lb_triang(g)
    for clique in maximal_cliques_chordal(h):
        assert is_pmc(g, clique)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_triangulation_separator_count(g):
    """A chordal graph on n vertices has at most n-1 minimal separators
    (clique-tree adhesions)."""
    h = lb_triang(g)
    seps = minimal_separators_chordal(h)
    assert len(seps) <= max(g.num_vertices() - 1, 0)
