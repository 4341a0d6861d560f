"""Differential tests: the ``bitset`` kernel is *exact* w.r.t. ``sets``.

The whole point of ranked enumeration is a bit-for-bit ordered output
stream, so the mask-level kernel is only admissible if it is
observationally identical to the label-level reference.  These tests
generate random graphs (Hypothesis plus a fixed corpus — well over 200
cases per run) and assert

* identical minimal-separator sets,
* identical potential-maximal-clique sets,
* identical crossing-relation answers, and
* **identical ordered ranked-enumeration prefixes** — same costs, same
  bag sets, same sequence positions, under two different cost specs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.core.context import TriangulationContext
from repro.graphs.bitgraph import BitGraph
from repro.graphs.graph import Graph
from repro.pmc.enumerate import potential_maximal_cliques
from repro.separators.berry import minimal_separators
from repro.separators.crossing import SeparatorFamily

from ..conftest import connected_random_graphs


#: The kernel checked against the ``sets`` reference.
fast_kernels = pytest.mark.parametrize("kernel", ["bitset"])


@st.composite
def small_graphs(draw, min_n=2, max_n=12):
    """Random undirected graphs as (n, edge set)."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph(vertices=range(n), edges=edges)


def ranked_prefix(graph, cost, kernel, k):
    """The first ``k`` answers as comparable (cost, bags) pairs."""
    response = Session(kernel=kernel).top(graph, cost, k=k)
    return [(r.cost, r.triangulation.bags) for r in response.results]


# ---------------------------------------------------------------------------
# Structure equivalence
# ---------------------------------------------------------------------------
@fast_kernels
@settings(max_examples=80, deadline=None)
@given(g=small_graphs(max_n=12))
def test_minimal_separator_sets_identical(kernel, g):
    assert minimal_separators(g, kernel="sets") == minimal_separators(
        g, kernel=kernel
    )


@fast_kernels
@settings(max_examples=60, deadline=None)
@given(g=small_graphs(max_n=10))
def test_pmc_sets_identical(kernel, g):
    seps = minimal_separators(g)
    assert potential_maximal_cliques(
        g, separators=seps, kernel="sets"
    ) == potential_maximal_cliques(g, separators=seps, kernel=kernel)


@fast_kernels
@settings(max_examples=40, deadline=None)
@given(g=small_graphs(max_n=10))
def test_crossing_relation_identical(kernel, g):
    seps = sorted(minimal_separators(g), key=sorted)
    plain = SeparatorFamily(g, seps)
    masked = SeparatorFamily(g, seps, bitgraph=BitGraph.from_graph(g))
    for i, s in enumerate(seps):
        for t in seps[i + 1 :]:
            assert plain.crosses(s, t) == masked.crosses(s, t)


# ---------------------------------------------------------------------------
# Ranked-order equivalence (the paper's contract: ordered, duplicate-free)
# ---------------------------------------------------------------------------
@fast_kernels
@settings(max_examples=160, deadline=None)
@given(g=small_graphs(max_n=9), cost=st.sampled_from(["fill", "width"]))
def test_ranked_prefix_identical_random(kernel, g, cost):
    if not g.is_connected():
        # Ranked enumeration requires connectivity; keep the case by
        # enumerating the largest component instead of discarding it.
        g = g.subgraph(max(g.connected_components(), key=len))
    assert ranked_prefix(g, cost, "sets", 8) == ranked_prefix(
        g, cost, kernel, 8
    )


@fast_kernels
def test_ranked_prefix_identical_corpus(small_graph_zoo, kernel):
    # A fixed, deterministic sweep on top of the Hypothesis cases: every
    # zoo graph under both cost specs, deeper prefixes (k=12).
    corpus = list(small_graph_zoo)
    corpus.extend(connected_random_graphs(9, 0.35, 6, seed_base=900))
    corpus.extend(connected_random_graphs(10, 0.25, 4, seed_base=950))
    checked = 0
    for g in corpus:
        for cost in ("fill", "width"):
            assert ranked_prefix(g, cost, "sets", 12) == ranked_prefix(
                g, cost, kernel, 12
            )
            checked += 1
    assert checked >= 40


@fast_kernels
def test_full_enumeration_identical_with_width_bound(kernel):
    for g in connected_random_graphs(8, 0.4, 4, seed_base=1200):
        sequences = []
        for k in ("sets", kernel):
            with Session(kernel=k).stream(
                g, "fill", width_bound=4
            ) as stream:
                sequences.append(
                    [(r.cost, r.triangulation.bags) for r in stream]
                )
        assert sequences[0] == sequences[1]


@fast_kernels
def test_contexts_structurally_identical(kernel):
    # Same separators, PMCs, blocks (in the same order), candidate lists
    # (children in the same order) and separator index: every kernel
    # feeds the same compile, so the DP inputs match exactly.
    for g in connected_random_graphs(9, 0.4, 4, seed_base=1300):
        ctx_sets = TriangulationContext.build(g, kernel="sets")
        ctx_fast = TriangulationContext.build(g, kernel=kernel)
        assert ctx_sets.kernel == "sets" and ctx_fast.kernel == kernel
        assert ctx_sets.separators == ctx_fast.separators
        assert ctx_sets.pmcs == ctx_fast.pmcs
        assert ctx_sets.blocks == ctx_fast.blocks
        assert ctx_sets.root_pmc_order() == ctx_fast.root_pmc_order()
        assert ctx_sets.candidates() == ctx_fast.candidates()
        assert ctx_sets.separator_index() == ctx_fast.separator_index()


# ---------------------------------------------------------------------------
# Larger-scale equivalence: hundreds of separators and PMCs per instance,
# beyond what the generated cases above reach.
# ---------------------------------------------------------------------------
@fast_kernels
def test_batched_scale_structures_identical(kernel):
    from repro.graphs.generators import connected_erdos_renyi, grid_graph

    for g in (
        grid_graph(4, 4),
        connected_erdos_renyi(16, 0.3, seed=77),
    ):
        seps_sets = minimal_separators(g, kernel="sets")
        seps_fast = minimal_separators(g, kernel=kernel)
        assert seps_sets == seps_fast
        pmcs_sets = potential_maximal_cliques(
            g, separators=seps_sets, kernel="sets"
        )
        pmcs_fast = potential_maximal_cliques(
            g, separators=seps_fast, kernel=kernel
        )
        assert pmcs_sets == pmcs_fast
        assert ranked_prefix(g, "fill", "sets", 5) == ranked_prefix(
            g, "fill", kernel, 5
        )
