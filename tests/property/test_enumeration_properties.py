"""Property-based tests for the enumeration stack (connected graphs)."""

import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Session
from repro.api.stream import RankedStream
from repro.baselines.brute import minimal_triangulations_via_mis
from repro.baselines.ckk import ckk_enumeration
from repro.core.mintriang import constrained_min_bags, min_triangulation_and_table
from repro.costs.classic import FillInCost, WidthCost
from repro.engine import strategy
from repro.graphs.bitgraph import iter_bits
from repro.graphs.graph import Graph
from repro.pmc.enumerate import potential_maximal_cliques
from repro.pmc.oracle import potential_maximal_cliques_bruteforce
from repro.triangulation.minimality import is_minimal_triangulation


@st.composite
def connected_graphs(draw, min_n=2, max_n=8, max_extra=None):
    """Random connected graphs: a random tree plus random extra edges
    (at most ``max_extra`` of them, when given)."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.add((u, v))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    extra = draw(st.sets(st.sampled_from(pairs), max_size=max_extra))
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


def _children(popped):
    """Every Lawler–Murty child of the recorded pops, as
    ``(context id, I, X)`` masks, and the contexts by id."""
    children, contexts = Counter(), {}
    for context, result in popped:
        index = context.separator_index()
        include = index.mask_of(result.include)
        exclude = index.mask_of(result.exclude)
        minseps = 0
        for bag in result.triangulation.bags:
            minseps |= index.pmcs[bag]
        accumulated = 0
        for i in iter_bits(minseps & ~include):
            children[(id(context), include | accumulated, exclude | 1 << i)] += 1
            accumulated |= 1 << i
        contexts[id(context)] = context
    return children, contexts


@pytest.mark.parametrize("preprocess", [False, True])
@pytest.mark.parametrize("width_bound", [None, 2, 3])
@pytest.mark.parametrize("cost", ["width", "fill"])
def test_crossing_test_skips_only_infeasible_children(
    cost, width_bound, preprocess, monkeypatch
):
    """Every child the ranked loop skips without a DP (direct streams
    and the atom streams of composed ones alike) is one the DP finds
    infeasible, and the test does skip some."""
    popped, solved, skipped = [], [], []
    next_answer, expand_job = RankedStream.__next__, strategy.expand_job

    def recording_next(stream):
        result = next_answer(stream)
        popped.append((stream._context, result))
        return result

    def recording_expand(context, cost, base_table, include, exclude, floor):
        solved.append((id(context), include, exclude))
        return expand_job(context, cost, base_table, include, exclude, floor)

    monkeypatch.setattr(RankedStream, "__next__", recording_next)
    monkeypatch.setattr(strategy, "expand_job", recording_expand)

    # Sparse graphs: under a width bound of 2 or 3 most dense ones have
    # no triangulation at all.  With preprocessing on, the random ones
    # leave few children to skip (at times none in all 20), so the
    # 5-cycle, whose ranked loop skips 4 children in every
    # parametrization, is always among them.
    @settings(max_examples=20, deadline=None)
    @given(connected_graphs(min_n=5, max_n=10, max_extra=6))
    @example(Graph(vertices=range(5), edges=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
    def check(g):
        popped.clear()
        solved.clear()
        stream = Session(preprocess=preprocess).stream(
            g, cost, width_bound=width_bound
        )
        for _ in itertools.islice(stream, 30):
            pass
        stream.checkpoint()  # solves the last answers' children
        children, contexts = _children(popped)
        ran = Counter(solved)
        assert not ran - children
        fill = FillInCost()
        for key, include, exclude in (children - ran).elements():
            context = contexts[key]
            _first, table = min_triangulation_and_table(context, fill)
            assert constrained_min_bags(context, fill, table, include, exclude) is None
            skipped.append((include, exclude))

    check()
    assert skipped
