"""Tests for the shared TriangulationContext initialization."""

import pytest

from repro.api import Session
from repro.core.context import TriangulationContext
from repro.costs.weighted import WeightedWidthCost
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.ordering import vertex_set_sort_key
from repro.pmc.predicate import is_pmc
from repro.separators.berry import SeparatorLimitExceeded
from repro.separators.blocks import Block, full_blocks_of_separator
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
            per_block, _root = ctx.candidates()
            # Correct and complete: a block's candidates are every PMC
            # with S ⊂ Ω ⊆ S ∪ C, each once.
            for block, candidates in zip(ctx.blocks, per_block, strict=True):
                omegas = [omega for omega, *_rest in candidates]
                assert len(set(omegas)) == len(omegas)
                assert set(omegas) == {
                    om
                    for om in ctx.pmcs
                    if block.separator < om <= block.vertices
                }

    def test_every_full_block_has_a_candidate(self):
        ctx = TriangulationContext.build(erdos_renyi(9, 0.35, seed=1))
        per_block, _root = ctx.candidates()
        for block, candidates in zip(ctx.blocks, per_block, strict=True):
            assert candidates, block

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
        assert stats["full_blocks"] == 7

    def test_fold_costs_never_build_label_blocks(self):
        # Only the generic DP step reads the label-level blocks; ranked
        # streams under folding costs run on the compiled lists alone.
        g = grid_graph(3, 3)
        session = Session(preprocess=False)
        for cost in ("fill", "width"):
            with session.stream(g, cost) as stream:
                assert len(list(zip(range(10), stream))) == 10
        ctx = session.context(g)
        assert ctx._blocks is None
        assert ctx.stats()["full_blocks"] == len(ctx.block_masks)
        assert ctx._blocks is None
        session.top(g, WeightedWidthCost(len), k=3)
        assert ctx._blocks is not None


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
        _per_block, root = ctx.candidates()
        (children,) = [kids for om, _size, _fill, kids in root if om == omega]
        assert len(children) == 1
        child = ctx.blocks[children[0]]
        assert child.separator == frozenset({"w1", "w2", "w3"})
        assert child.component == frozenset({"v", "v'"})

    def test_cache_returns_same_object(self, paper_graph):
        ctx = TriangulationContext.build(paper_graph)
        assert ctx.candidates() is ctx.candidates()
        assert ctx.blocks is ctx.blocks

    def test_block_subgraph_cached(self, paper_graph):
        ctx = TriangulationContext.build(paper_graph)
        block = ctx.blocks[0]
        assert ctx.block_subgraph(block) is ctx.block_subgraph(block)
        assert ctx.block_subgraph(block).vertex_set() == block.vertices


def _expected(ctx: TriangulationContext):
    """The candidate lists from their definition, at label level: for a
    block ``(S, C)`` every ``Ω`` of :meth:`root_pmc_order` with
    ``S ⊂ Ω ⊆ S ∪ C``, its children the components of ``(S ∪ C) \\ Ω``,
    its fill term ``nonedges(Ω) − Σ nonedges(S_child)``; the root the
    same over ``G \\ Ω``.  A candidate with a child outside the blocks is
    left out."""
    g = ctx.graph
    position = {block: i for i, block in enumerate(ctx.blocks)}

    def nonedges(vertices):
        return len(list(g.missing_edges(vertices)))

    def compile_one(region, omega):
        fill = nonedges(omega)
        children = []
        for piece in g.components_without(omega | (g.vertex_set() - region)):
            child = Block(frozenset(g.neighborhood_of_set(piece)), frozenset(piece))
            if child not in position:
                return None
            children.append(position[child])
            fill -= nonedges(child.separator)
        return (omega, len(omega), fill, tuple(children))

    def compile_all(region, omegas):
        found = (compile_one(region, omega) for omega in omegas)
        return tuple(c for c in found if c is not None)

    order = ctx.root_pmc_order()
    per_block = [
        compile_all(
            block.vertices,
            [om for om in order if block.separator < om <= block.vertices],
        )
        for block in ctx.blocks
    ]
    return per_block, compile_all(g.vertex_set(), order)


class TestCandidates:
    def test_compiled_once_and_mirror_children(self, paper_graph):
        # Blocks, PMC order and candidate lists against their definitions,
        # under both kernels, unbounded and under a bound that drops
        # candidates.
        graphs = [
            *connected_random_graphs(9, 0.35, 4, seed_base=40),
            # K_{2,3}: Ω = {a, b, x} leaves {y} and {z}, both seeing {a, b}.
            Graph(edges=[(a, x) for a in "ab" for x in "xyz"]),
            paper_graph,
        ]
        for kernel in ("sets", "bitset"):
            dropped = 0
            for g in graphs:
                sizes = {}
                for width_bound in (None, 3):
                    ctx = TriangulationContext.build(
                        g, width_bound=width_bound, kernel=kernel
                    )
                    assert ctx.candidates() is ctx.candidates()
                    assert ctx.blocks == sorted(
                        (
                            block
                            for s in ctx.separators
                            for block in full_blocks_of_separator(g, s)
                        ),
                        key=lambda b: (
                            len(b),
                            vertex_set_sort_key(b.separator),
                            vertex_set_sort_key(b.component),
                        ),
                    )
                    assert ctx.root_pmc_order() == tuple(
                        sorted(ctx.pmcs, key=vertex_set_sort_key)
                    )
                    per_block, root = ctx.candidates()
                    assert (per_block, root) == _expected(ctx)
                    sizes[width_bound] = len(root) + sum(map(len, per_block))
                dropped += sizes[None] - sizes[3]
            assert dropped > 0
