"""Ablation benchmarks for the library's own implementation choices.

Not a paper table — these time the alternatives each choice was made
against:

* sharing the unconstrained DP table across Lawler–Murty children
  (versus recomputing every block under every constraint set);
* the bounded-width context restriction (``MinTriangB``) versus the full
  poly-MS pipeline on the same input;
* LB-Triang versus MCS-M as the CKK black box.
"""

from __future__ import annotations

import itertools

from repro.api import RankedStream
from repro.core.context import TriangulationContext
from repro.core.mintriang import constrained_min_bags, min_triangulation_and_table
from repro.costs.classic import FillInCost, WidthCost
from repro.costs.constrained import ConstrainedCost
from repro.graphs.generators import erdos_renyi
from repro.graphs.ordering import vertex_set_sort_key
from repro.triangulation.lb_triang import lb_triang
from repro.triangulation.mcs_m import mcs_m
from repro.workloads.pace import pace100_instances


def _sample_constraints(ctx, k=3):
    seps = sorted(ctx.separators, key=vertex_set_sort_key)
    include = frozenset(seps[:1])
    exclude = frozenset(seps[1 : 1 + k])
    return include, exclude


def _dp_graph(smoke: bool):
    return erdos_renyi(12, 0.3, seed=3) if smoke else erdos_renyi(18, 0.22, seed=3)


def test_constrained_dp_with_table_reuse(benchmark, smoke):
    graph = _dp_graph(smoke)
    ctx = TriangulationContext.build(graph)
    cost = FillInCost()
    _, base_table = min_triangulation_and_table(ctx, cost)
    include, exclude = _sample_constraints(ctx)
    index = ctx.separator_index()
    included, excluded = index.mask_of(include), index.mask_of(exclude)

    benchmark(
        lambda: constrained_min_bags(ctx, cost, base_table, included, excluded)
    )


def test_constrained_dp_without_table_reuse(benchmark, smoke):
    graph = _dp_graph(smoke)
    ctx = TriangulationContext.build(graph)
    cost = FillInCost()
    include, exclude = _sample_constraints(ctx)
    constrained = ConstrainedCost(cost, include, exclude)

    benchmark(lambda: min_triangulation_and_table(ctx, constrained))


def test_bounded_context_vs_full(benchmark, smoke):
    """MinTriangB's restriction shrinks the DP when the bound is tight."""
    if smoke:
        graph, bound = erdos_renyi(10, 0.4, seed=3), 4
    else:
        (_, graph), bound = pace100_instances()[4], 4  # grid4x4, treewidth 4

    def run():
        full = TriangulationContext.build(graph)
        bounded = TriangulationContext.build(graph, width_bound=bound)
        return len(full.pmcs), len(bounded.pmcs)

    full_pmcs, bounded_pmcs = benchmark.pedantic(run, rounds=1, iterations=1)
    assert bounded_pmcs <= full_pmcs


def test_ranked_ten_results(benchmark, smoke):
    """End-to-end: ten ranked results on a mid-size random graph."""
    graph = _dp_graph(smoke)
    ctx = TriangulationContext.build(graph)
    k = 5 if smoke else 10

    def run():
        stream = RankedStream.start(ctx, WidthCost())
        return len(list(itertools.islice(stream, k)))

    assert benchmark.pedantic(run, rounds=1, iterations=1) == k


def test_lb_triang_kernel(benchmark, smoke):
    graph = erdos_renyi(15 if smoke else 40, 0.15, seed=9)
    benchmark(lambda: lb_triang(graph))


def test_mcs_m_kernel(benchmark, smoke):
    graph = erdos_renyi(15 if smoke else 40, 0.15, seed=9)
    benchmark(lambda: mcs_m(graph))
