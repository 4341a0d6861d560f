"""Empirical probes of the split-monotonicity contract (Definition 3.2).

Split monotonicity cannot be verified exhaustively; these tests sample the
definition's scenario: two tree decompositions of the same graph that split
at a common separator into the same two subgraphs, where one side is
replaced by an alternative.  For all bundled costs, a cheaper-or-equal
replacement must never increase the total cost.

The sampling uses minimal triangulations of a common graph that share a
minimal separator S: both decompose into the same two S-sides, so their
clique trees split as ⟨G1, ·, G2, ·⟩ with identical G1, G2.
"""

import itertools

import pytest

from repro.baselines.brute import minimal_triangulations_via_mis
from repro.costs.classic import FillInCost, LexWidthFillCost, SumExpBagCost, WidthCost
from repro.costs.constrained import ConstrainedCost
from repro.costs.weighted import WeightedFillCost, WeightedWidthCost
from repro.graphs.chordal import maximal_cliques_chordal
from repro.graphs.cliquetree import minimal_separators_chordal
from repro.graphs.generators import erdos_renyi


def _sides(graph, triangulation, separator):
    """Split a triangulation's bags along a separator it contains.

    Returns (bags_side_a, bags_side_b, vertices_a, vertices_b) or None.
    """
    comps = graph.components_without(separator)
    if len(comps) != 2:
        return None
    a, b = comps
    bags = maximal_cliques_chordal(triangulation)
    side_a = {bag for bag in bags if bag & a}
    side_b = {bag for bag in bags if bag & b}
    if side_a | side_b != bags or (side_a & side_b):
        return None
    return side_a, side_b, frozenset(a) | separator, frozenset(b) | separator


def _cost_instances(graph):
    return [
        WidthCost(),
        FillInCost(),
        LexWidthFillCost(graph),
        SumExpBagCost(2.0),
        WeightedWidthCost(lambda bag: float(len(bag))),
        WeightedFillCost(lambda u, v: 1.0),
        ConstrainedCost(FillInCost()),
    ]


@pytest.mark.parametrize("seed", range(8))
def test_split_monotone_on_shared_separator_splits(seed):
    graph = erdos_renyi(8, 0.35, seed=seed)
    if not graph.is_connected():
        pytest.skip("disconnected sample")
    triangulations = minimal_triangulations_via_mis(graph)
    if len(triangulations) < 2:
        pytest.skip("not enough triangulations")
    costs = _cost_instances(graph)
    checked = 0
    for h1, h2 in itertools.combinations(triangulations, 2):
        shared = minimal_separators_chordal(h1) & minimal_separators_chordal(h2)
        for s in shared:
            split1 = _sides(graph, h1, s)
            split2 = _sides(graph, h2, s)
            if split1 is None or split2 is None:
                continue
            a1, b1, va, vb = split1
            a2, b2, _, _ = split2
            ga = graph.subgraph(va)
            gb = graph.subgraph(vb)
            for cost in costs:
                # Build the "mix": keep side A of h1, use side B of h2.
                ca1, cb1 = cost.evaluate(ga, a1), cost.evaluate(gb, b1)
                ca2, cb2 = cost.evaluate(ga, a2), cost.evaluate(gb, b2)
                whole1 = cost.evaluate(graph, a1 | b1)
                whole2 = cost.evaluate(graph, a2 | b2)
                # Definition 3.2: sides pairwise <= implies whole <=.
                if ca1 <= ca2 and cb1 <= cb2:
                    assert whole1 <= whole2, (cost.name, s)
                if ca2 <= ca1 and cb2 <= cb1:
                    assert whole2 <= whole1, (cost.name, s)
                checked += 1
    if checked == 0:
        pytest.skip("no comparable splits in this sample")


def test_declared_split_monotone():
    graph = erdos_renyi(6, 0.4, seed=1)
    for cost in _cost_instances(graph):
        assert cost.split_monotone
