"""A non-decomposable graph's plan is read off MinSep(G).

``PreprocessPlan.build`` lists the minimal separators of a connected
graph with no simplicial vertex and stops at the first clique.  When
there is none, the plan is trivial and keeps the list, and the session
hands it to the graph's context build, which then lists no separators
of its own.  These tests pin the plan to the reduce-then-decompose path
it short-cuts, and the hand-off to the one case where the masks fit:
a request graph with the plan snapshot's vertex order.
"""

from __future__ import annotations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro.core.context as context_module
from repro.api import Session
from repro.api.fingerprint import graph_fingerprint
from repro.graphs.bitgraph import BitGraph
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi,
    grid_graph,
    petersen_graph,
    ring_of_cycles,
)
from repro.graphs.graph import Graph
from repro.preprocess.atoms import atom_decomposition
from repro.preprocess.recompose import PreprocessPlan
from repro.preprocess.reduce import reduce_graph
from repro.separators.berry import minimal_separator_masks


def two_c5() -> Graph:
    """Two 5-cycles sharing the edge 1-2: the clique separator {1, 2}
    splits it, and no vertex is simplicial."""
    return Graph(edges=[
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
        (2, 6), (6, 7), (7, 8), (8, 1),
    ])


def assert_plan_matches_reference(graph: Graph, duplicate_sensitive: bool):
    plan = PreprocessPlan.build(graph, duplicate_sensitive=duplicate_sensitive)
    reduced, trace = reduce_graph(graph, duplicate_sensitive=duplicate_sensitive)
    decomposition = atom_decomposition(reduced)
    assert plan.trivial == (not trace and decomposition.is_trivial)
    assert plan.trace == trace
    assert plan.reduced == reduced
    assert plan.decomposition.atoms == decomposition.atoms
    assert plan.decomposition.separators == decomposition.separators
    if plan.separator_masks is not None:
        bitgraph = BitGraph.from_graph(graph)
        assert plan.separator_masks == minimal_separator_masks(bitgraph)
        assert not any(bitgraph.is_clique(s) for s in plan.separator_masks)
        assert plan.trivial
    return plan


def chorded_cycle(length: int, seed: int) -> Graph:
    """The cycle ``0, 1, …, length - 1`` plus the edges of a G(n, 0.3)."""
    graph = cycle_graph(length)
    graph.add_edges(erdos_renyi(length, 0.3, seed=seed).edges())
    return graph


@st.composite
def plan_graphs(draw):
    """G(n, p) samples: dense ones (most are read off MinSep(G)), two
    chorded cycles glued on a vertex or an edge, sparse and complete
    ones; some made connected by an edge between consecutive components,
    some with a pendant or a simplicial vertex attached."""
    # Repeats weight the draws: two dense samples to one glued and one
    # sparse, three unchanged samples to one with a pendant and one with
    # a simplicial vertex.
    kind = draw(st.sampled_from(("dense", "dense", "glued", "sparse")))
    if kind == "sparse":
        n = draw(st.sampled_from(range(1, 13)))
        p = draw(st.sampled_from((0.25, 0.5, 1.0)))
        graph = erdos_renyi(n, p, seed=draw(st.integers(0, 10_000)))
    elif kind == "dense":
        n = draw(st.sampled_from(range(8, 13)))
        p = draw(st.sampled_from((0.6, 0.7)))
        graph = erdos_renyi(n, p, seed=draw(st.integers(0, 10_000)))
    else:
        # Two chorded cycles sharing vertex 0, or the edge 0-1: a clique
        # minimal separator, found by listing MinSep(G) unless some
        # chord made a vertex simplicial.
        shared = draw(st.sampled_from((1, 2)))
        length, seed = st.sampled_from(range(4, 8)), st.integers(0, 10_000)
        graph = chorded_cycle(draw(length), draw(seed))
        other = chorded_cycle(draw(length), draw(seed))
        offset = graph.num_vertices() - shared
        graph.add_edges(
            (u if u < shared else u + offset, v if v < shared else v + offset)
            for u, v in other.edges()
        )
    if draw(st.booleans()):
        firsts = [min(c) for c in graph.components_without(set())]
        graph.add_edges(zip(firsts, firsts[1:]))
    extra = draw(
        st.sampled_from(("none", "none", "none", "pendant", "simplicial"))
    )
    if extra != "none":
        vertices = sorted(graph.vertices)
        anchor = draw(st.sampled_from(vertices))
        leaf = vertices[-1] + 1
        graph.add_edge(anchor, leaf)
        others = sorted(graph.adj(anchor) - {leaf})
        if extra == "simplicial" and others:
            graph.add_edge(others[0], leaf)
    return graph


@pytest.mark.preprocess
@pytest.mark.parametrize("duplicate_sensitive", (False, True))
@settings(max_examples=200, deadline=None)
@given(graph=plan_graphs())
def test_plan_equals_reduce_then_decompose(graph, duplicate_sensitive):
    plan = assert_plan_matches_reference(graph, duplicate_sensitive)
    if plan.separator_masks is not None:
        event("read off MinSep(G)")
    elif graph.is_connected() and not any(
        graph.is_clique(graph.adj(v)) for v in graph.vertices
    ):
        event("listed up to a clique minimal separator")


@pytest.mark.preprocess
@pytest.mark.parametrize("duplicate_sensitive", (False, True))
@pytest.mark.parametrize(
    "factory, read_off",
    [
        (lambda: ring_of_cycles(2, 5), False),  # a cut vertex
        (two_c5, False),  # a clique separator of two vertices
        (lambda: cycle_graph(6), True),
        (petersen_graph, True),
        (lambda: grid_graph(3, 4), True),
    ],
)
def test_plan_anchors(factory, read_off, duplicate_sensitive):
    plan = assert_plan_matches_reference(factory(), duplicate_sensitive)
    assert (plan.separator_masks is not None) == read_off


def count_calls(monkeypatch, name: str) -> list:
    """Record each call of ``repro.core.context.<name>``."""
    calls = []
    original = getattr(context_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(context_module, name, counted)
    return calls


def first_answers(stream, k: int = 6):
    out = []
    for result in stream:
        out.append((result.cost, frozenset(result.triangulation.bags)))
        if len(out) == k:
            break
    stream.close()
    return out


def test_non_decomposable_context_lists_no_separators(monkeypatch):
    graph = petersen_graph()
    reference = first_answers(Session(preprocess=False).stream(graph, "fill"))
    listings = count_calls(monkeypatch, "minimal_separator_masks")
    session = Session()
    assert first_answers(session.stream(graph, "fill")) == reference
    assert listings == []
    assert session.plan_for(graph).separator_masks is not None
    assert session.cache_info()["builds"] == 1


@pytest.mark.parametrize(
    "options, name",
    [
        ({"preprocess": False}, "minimal_separator_masks"),
        ({"kernel": "sets"}, "minimal_separators"),
    ],
)
def test_other_routes_list_their_own_separators(monkeypatch, options, name):
    listings = count_calls(monkeypatch, name)
    first_answers(Session(**options).stream(petersen_graph(), "fill"))
    assert len(listings) == 1


def test_reordered_graph_lists_its_own_separators(monkeypatch):
    """Same content in another vertex order: one fingerprint, so the plan
    is a hit, but its masks do not fit this graph's vertex order."""
    graph = petersen_graph()
    reordered = Graph(vertices=reversed(list(graph.vertices)))
    reordered.add_edges(graph.edges())
    assert graph_fingerprint(reordered) == graph_fingerprint(graph)

    session = Session()
    first_answers(session.stream(graph, "fill"))
    listings = count_calls(monkeypatch, "minimal_separator_masks")
    builds = []
    original_build = PreprocessPlan.build
    monkeypatch.setattr(
        PreprocessPlan,
        "build",
        staticmethod(lambda *a, **kw: builds.append(a) or original_build(*a, **kw)),
    )
    answers = first_answers(session.stream(reordered, "fill", width_bound=5))
    assert builds == []
    assert len(listings) == 1
    fresh = first_answers(Session().stream(reordered, "fill", width_bound=5))
    assert answers == fresh
