"""The mask-level ONE_MORE_VERTEX step against the wide candidate family.

:func:`repro.pmc.enumerate.one_more_vertex_masks` decides each candidate
form by its own rule (module docstring of :mod:`repro.pmc.enumerate`).
The reference below is the plain form of that step: candidates 0–4 with
case 4 over every component of ``G \\ S``, each run through
:func:`~repro.pmc.predicate.pmc_components_mask`.  Both are fed the same
previous step at every prefix, so each rule is pinned on its own — a
rule that loses a PMC, admits a non-PMC or hands back wrong components
fails at the prefix where it happens, not only in the final ``PMC(G)``.
"""

import pytest
from hypothesis import given, settings

import repro.pmc.enumerate as enumerate_mod
from repro.graphs.bitgraph import BitGraph
from repro.graphs.generators import (
    complete_bipartite_graph,
    cycle_graph,
    grid_graph,
    petersen_graph,
    queen_graph,
)
from repro.graphs.graph import Graph
from repro.pmc.enumerate import (
    one_more_vertex_masks,
    potential_maximal_cliques,
    prefix_minimal_separator_masks,
    prefix_views,
)
from repro.pmc.predicate import pmc_components_mask
from repro.separators.berry import minimal_separator_masks

# Isolated vertices included, so many of these graphs are disconnected.
from ..property.test_separator_properties import small_graphs


def reference_step(bigger, a, pmcs_smaller, minseps_smaller, minseps_bigger):
    """ONE_MORE_VERTEX over the wide family, one generic test each."""
    abit = 1 << a
    out = {}
    checked = set()

    def consider(candidate):
        if candidate in checked:
            return
        checked.add(candidate)
        components = pmc_components_mask(bigger, candidate)
        if components is not None:
            out[candidate] = components

    consider(abit)
    for om in pmcs_smaller:
        consider(om)
        consider(om | abit)
    for s in minseps_bigger:
        consider(s | abit)
    for s in minseps_bigger:
        if s & abit:
            continue
        for comp in bigger.components_without(s):
            consider(s | comp)
            for t in minseps_smaller:
                if t & comp:
                    consider(s | (t & comp))
    return out


def assert_every_step_matches(graph: Graph) -> None:
    bitgraph = BitGraph.from_graph(graph)
    order = bitgraph.bfs_order()
    views = prefix_views(bitgraph, order)
    per_prefix = prefix_minimal_separator_masks(
        views, order, minimal_separator_masks(bitgraph)
    )
    pmcs = {1 << order[0]: []}
    for i in range(1, len(order)):
        a = order[i]
        args = (views[i], a, pmcs, per_prefix[i - 1], per_prefix[i])
        expected = reference_step(*args)
        got = one_more_vertex_masks(*args)
        assert got == expected, (i, a)
        # Same discovery order, so a budget overflow carries the same
        # partial set.
        assert list(got) == list(expected), (i, a)
        pmcs = expected


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_every_step_matches_the_wide_family(graph):
    assert_every_step_matches(graph)


@pytest.mark.parametrize(
    "graph",
    [
        complete_bipartite_graph(2, 3),
        cycle_graph(4),
        queen_graph(3, 5),
        grid_graph(3, 4),
        petersen_graph(),
    ],
    ids=["K2,3", "C4", "queen-3x5", "grid-3x4", "petersen"],
)
def test_every_step_matches_the_wide_family_on_the_corpus(graph):
    assert_every_step_matches(graph)


@pytest.mark.parametrize(
    "graph",
    [queen_graph(4, 4), grid_graph(4, 4)],
    ids=["queen-4x4", "grid-4x4"],
)
def test_generic_pmc_test_runs_at_most_once_per_step(graph, monkeypatch):
    """Only ``{a}`` alone goes through the generic test; every other
    candidate is decided over components the step already holds."""
    tests = steps = 0
    generic = enumerate_mod.pmc_components_mask
    step = enumerate_mod.one_more_vertex_masks

    def counted_test(*args):
        nonlocal tests
        tests += 1
        return generic(*args)

    def counted_step(*args, **kwargs):
        nonlocal steps
        steps += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(enumerate_mod, "pmc_components_mask", counted_test)
    monkeypatch.setattr(enumerate_mod, "one_more_vertex_masks", counted_step)
    found = potential_maximal_cliques(graph, kernel="bitset")
    monkeypatch.undo()
    assert steps == graph.num_vertices() - 1
    assert tests <= steps
    assert found == potential_maximal_cliques(graph, kernel="sets")


@pytest.mark.parametrize(
    "graph",
    [queen_graph(3, 5), grid_graph(4, 4), petersen_graph()],
    ids=["queen-3x5", "grid-4x4", "petersen"],
)
def test_each_prefix_view_is_built_once(graph, monkeypatch):
    """The prefix separators and the ONE_MORE_VERTEX steps share one
    induced view per prefix (the steps above check each step's PMCs and
    components against the wide family)."""
    bitgraph = BitGraph.from_graph(graph)
    built = []
    induced = BitGraph.induced

    def counted(self, mask):
        built.append(mask)
        return induced(self, mask)

    monkeypatch.setattr(BitGraph, "induced", counted)
    found = enumerate_mod.potential_maximal_clique_masks(bitgraph)
    monkeypatch.undo()
    assert len(built) == len(set(built)) == graph.num_vertices()
    labels_of = bitgraph.indexer.labels_of
    assert set(map(labels_of, found)) == potential_maximal_cliques(
        graph, kernel="sets"
    )
