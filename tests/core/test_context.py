"""Tests for the shared TriangulationContext initialization."""

import pytest

from repro.core.context import TriangulationContext
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    paper_example_graph,
)
from repro.graphs.graph import Graph
from repro.pmc.predicate import is_pmc
from repro.separators.berry import SeparatorLimitExceeded
from tests.conftest import connected_random_graphs


class TestBuild:
    def test_paper_example(self, paper_graph):
        ctx = TriangulationContext.build(paper_graph)
        assert len(ctx.separators) == 3
        # {u,v,wi} for i=1..3, {v,v'}, {u,w1,w2,w3}, {v,w1,w2,w3}
        assert len(ctx.pmcs) == 6
        # full blocks: S1 has 2 (both full), S2 has 3, S3 has 2
        assert len(ctx.blocks) == 7
        assert ctx.init_seconds >= 0

    def test_blocks_sorted(self):
        ctx = TriangulationContext.build(erdos_renyi(10, 0.3, seed=2))
        sizes = [len(b) for b in ctx.blocks]
        assert sizes == sorted(sizes)

    def test_index_is_correct_and_complete(self):
        for seed in range(6):
            g = erdos_renyi(8, 0.4, seed=seed)
            if not g.is_connected():
                continue
            ctx = TriangulationContext.build(g)
            for block, pmcs in ctx.pmc_index.items():
                for om in pmcs:
                    assert block.separator < om <= block.vertices
            # Completeness: every (full block, PMC) inclusion is indexed.
            for block in ctx.blocks:
                expected = {
                    om
                    for om in ctx.pmcs
                    if block.separator < om <= block.vertices
                }
                assert set(ctx.pmc_index[block]) == expected

    def test_every_full_block_has_a_candidate(self):
        ctx = TriangulationContext.build(erdos_renyi(9, 0.35, seed=1))
        for block in ctx.blocks:
            assert ctx.pmc_index[block], block

    def test_disconnected_rejected(self):
        g = Graph(edges=[(1, 2), (3, 4)])
        with pytest.raises(ValueError):
            TriangulationContext.build(g)

    def test_complete_graph(self):
        ctx = TriangulationContext.build(complete_graph(4))
        assert ctx.separators == set()
        assert ctx.pmcs == {frozenset(range(4))}
        assert ctx.blocks == []

    def test_limits_propagate(self):
        g = erdos_renyi(14, 0.4, seed=0)
        with pytest.raises(SeparatorLimitExceeded):
            TriangulationContext.build(g, separator_limit=2)
        with pytest.raises(SeparatorLimitExceeded):
            TriangulationContext.build(g, pmc_limit=2)

    def test_stats(self, paper_graph):
        stats = TriangulationContext.build(paper_graph).stats()
        assert stats["vertices"] == 6
        assert stats["edges"] == 7
        assert stats["minimal_separators"] == 3
        assert stats["pmcs"] == 6


class TestWidthBound:
    def test_filters_by_size(self):
        g = cycle_graph(6)
        full = TriangulationContext.build(g)
        bounded = TriangulationContext.build(g, width_bound=2)
        assert all(len(s) <= 2 for s in bounded.separators)
        assert all(len(om) <= 3 for om in bounded.pmcs)
        assert bounded.separators <= full.separators
        assert bounded.pmcs <= full.pmcs

    def test_bound_recorded(self):
        ctx = TriangulationContext.build(cycle_graph(5), width_bound=3)
        assert ctx.width_bound == 3


class TestChildrenCache:
    def test_children_match_structure(self, paper_graph):
        ctx = TriangulationContext.build(paper_graph)
        omega = frozenset({"u", "w1", "w2", "w3"})
        assert is_pmc(paper_graph, omega)
        children = ctx.children_of(None, omega)
        assert len(children) == 1
        (child,) = children
        assert child.separator == frozenset({"w1", "w2", "w3"})
        assert child.component == frozenset({"v", "v'"})

    def test_cache_returns_same_object(self, paper_graph):
        ctx = TriangulationContext.build(paper_graph)
        omega = frozenset({"u", "w1", "w2", "w3"})
        assert ctx.children_of(None, omega) is ctx.children_of(None, omega)

    def test_block_subgraph_cached(self, paper_graph):
        ctx = TriangulationContext.build(paper_graph)
        block = ctx.blocks[0]
        assert ctx.block_subgraph(block) is ctx.block_subgraph(block)
        assert ctx.block_subgraph(block).vertex_set() == block.vertices


class TestCandidates:
    def test_compiled_once_and_mirror_children(self):
        # Each candidate is (Ω, |Ω|, nonedges(Ω) − Σ nonedges(S_child),
        # child positions), in pmc_index / root_pmc_order order.
        for kernel in ("sets", "bitset"):
            for g in connected_random_graphs(9, 0.35, 4, seed_base=40):
                ctx = TriangulationContext.build(g, kernel=kernel)
                per_block, root = ctx.candidates()
                assert ctx.candidates() is ctx.candidates()
                position = {b: i for i, b in enumerate(ctx.blocks)}

                def nonedges(vertices):
                    return len(list(g.missing_edges(vertices)))

                def expected(block, omega):
                    children = ctx.children_of(block, omega)
                    fill = nonedges(omega) - sum(
                        nonedges(c.separator) for c in children
                    )
                    positions = tuple(position[c] for c in children)
                    return (omega, len(omega), fill, positions)

                for block, candidates in zip(ctx.blocks, per_block):
                    assert candidates == tuple(
                        expected(block, om) for om in ctx.pmc_index[block]
                    )
                assert root == tuple(
                    expected(None, om) for om in ctx.root_pmc_order()
                )
