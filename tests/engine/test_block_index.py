"""Tests for the separator bit index and constrained-table reuse.

:class:`~repro.core.context.SeparatorIndex` numbers ``MinSep(G)`` as bits
in pivot order; the constrained DP and the ranked loop read every
constraint, touched block and ``MinSep(H)`` off its masks.  The masks are
checked against a brute-force subset scan, the crossing rows against
components found at label level, and the pivots the ranked loop derives
from them against the Kruskal clique-tree adhesions of
``Triangulation.minimal_separators``, recorded at the one call the loop
makes per child it does not rule out.
"""

from __future__ import annotations

import itertools

import pytest

from repro.api import Session
from repro.core.context import TriangulationContext
from repro.core.mintriang import constrained_min_bags, min_triangulation_and_table
from repro.costs.classic import FillInCost
from repro.costs.constrained import ConstrainedCost, satisfies_constraints
from repro.engine import strategy
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    mycielski_graph,
    petersen_graph,
    queen_graph,
)
from repro.graphs.ordering import vertex_set_sort_key
from tests.conftest import connected_random_graphs

KERNELS = ("sets", "bitset")


def _graphs():
    return [
        *connected_random_graphs(8, 0.4, 3, seed_base=9300),
        *connected_random_graphs(10, 0.3, 2, seed_base=9350),
        petersen_graph(),
        grid_graph(3, 4),
        queen_graph(3, 4),
        cycle_graph(8),
        mycielski_graph(4),
    ]


def _bits(index, separators):
    """The mask of ``separators``, one bit per member, brute force."""
    return sum(
        1 << i for i, s in enumerate(index.separators) if s in separators
    )


def _crossing_sets(graph, separators):
    """Each separator ``S`` mapped to the separators that meet two
    components of ``G \\ S``, at label level."""
    crosses = {}
    for s in separators:
        components = graph.components_without(s)
        crosses[s] = {
            t for t in separators if sum(1 for c in components if c & t) >= 2
        }
    return crosses


def _ruled_out(crosses, include, exclude):
    """Whether some separator of ``exclude`` is crossed by no separator
    outside ``exclude`` that crosses no member of ``include``."""
    allowed = {
        t for t in crosses
        if t not in exclude and not any(t in crosses[i] for i in include)
    }
    return any(not crosses[x] & allowed for x in exclude)


class TestSeparatorIndex:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("width_bound", [None, 3])
    def test_masks_match_bruteforce_scan(self, kernel, width_bound):
        for graph in _graphs():
            ctx = TriangulationContext.build(
                graph, width_bound=width_bound, kernel=kernel
            )
            index = ctx.separator_index()
            assert ctx.separator_index() is index  # built once
            assert index.separators == tuple(
                sorted(ctx.separators, key=vertex_set_sort_key)
            )
            for s in ctx.separators:
                assert index.bits[s] == _bits(index, {s})
            seps = index.separators
            for block, mask in zip(ctx.blocks, index.blocks, strict=True):
                inside = {s for s in seps if s <= block.vertices}
                assert mask == _bits(index, inside)
            assert set(index.pmcs) == ctx.pmcs
            for omega, mask in index.pmcs.items():
                assert mask == _bits(index, {s for s in seps if s <= omega})
            per_block, root = ctx.candidates()
            per_block_masks, root_masks = index.candidates
            for candidates, masks in zip(
                [*per_block, root], [*per_block_masks, root_masks], strict=True
            ):
                for (omega, _size, _fill, children), (inside, covered) in zip(
                    candidates, masks, strict=True
                ):
                    assert inside == index.pmcs[omega]
                    regions = [omega] + [ctx.blocks[c].vertices for c in children]
                    assert covered == _bits(
                        index, {s for s in seps if any(s <= r for r in regions)}
                    )

    def test_mask_of_and_members(self):
        ctx = TriangulationContext.build(grid_graph(3, 4))
        index = ctx.separator_index()
        some = sorted(ctx.separators, key=vertex_set_sort_key)[::3]
        mask = index.mask_of(some)
        assert mask == _bits(index, set(some))
        assert index.members(mask) == some
        assert index.mask_of(()) == 0 and index.members(0) == []
        outside = frozenset(ctx.graph.vertices)
        assert index.mask_of([some[0], outside]) is None

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("width_bound", [None, 3])
    def test_crossing_rows_match_label_level(self, kernel, width_bound):
        """Each row is the separators meeting two components of
        ``G \\ S``, found with ``Graph.components_without``."""
        for graph in _graphs():
            ctx = TriangulationContext.build(
                graph, width_bound=width_bound, kernel=kernel
            )
            index = ctx.separator_index()
            crosses = _crossing_sets(graph, index.separators)
            for s in index.separators:
                assert index.crossing(index.bits[s]) == _bits(index, crosses[s])

    def test_crossing_is_symmetric_and_kept(self):
        for graph in _graphs():
            index = TriangulationContext.build(graph).separator_index()
            bits = [index.bits[s] for s in index.separators]
            for s, t in itertools.product(bits, bits):
                assert bool(index.crossing(s) & t) == bool(index.crossing(t) & s)
            # Built once per separator, and invisible to equality.
            assert len(index._crossing) == len(bits)
            assert index == TriangulationContext.build(graph).separator_index()

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("width_bound", [None, 3])
    def test_pivots_are_minsep_of_h_in_pivot_order(
        self, kernel, width_bound, monkeypatch
    ):
        """Every pop's children exclude, one at a time, the clique-tree
        pass's ``MinSep(H) \\ I`` in ``vertex_set_sort_key`` order.  Each
        child is solved by a call of ``repro.engine.strategy.expand_job``
        looked up through the module (where traced runs wrap it) with
        ``[I, X]`` as separator-index masks, except the children the
        crossing test rules out (computed here at label level), which
        the DP finds infeasible.  The last answer's children are solved
        only when a reader of the frontier (here ``checkpoint()``) asks
        for them."""
        recorded = []
        skipped_anywhere = 0
        original = strategy.expand_job

        def recorder(context, cost, base_table, include, exclude, floor):
            index = context.separator_index()
            recorded.append(
                (
                    frozenset(index.members(include)),
                    frozenset(index.members(exclude)),
                )
            )
            return original(context, cost, base_table, include, exclude, floor)

        monkeypatch.setattr(strategy, "expand_job", recorder)
        for graph in _graphs():
            for cost in ("width", "fill"):
                session = Session(kernel=kernel, preprocess=False)
                recorded.clear()
                stream = session.stream(graph, cost, width_bound=width_bound)
                results = list(itertools.islice(stream, 25))
                stream.close()
                ctx = session.context(graph, width_bound)
                index = ctx.separator_index()
                crosses = _crossing_sets(graph, index.separators)
                expected, skipped = [], []
                last_children = 0
                for r in results:
                    minseps = r.triangulation.minimal_separators  # Kruskal
                    mask = 0
                    for bag in r.triangulation.bags:
                        mask |= index.pmcs[bag]
                    assert set(index.members(mask)) == minseps
                    pivots = sorted(minseps - r.include, key=vertex_set_sort_key)
                    last_children = 0
                    for i, pivot in enumerate(pivots):
                        child = (r.include | frozenset(pivots[:i]), r.exclude | {pivot})
                        if _ruled_out(crosses, *child):
                            skipped.append(child)
                        else:
                            expected.append(child)
                            last_children += 1
                # A stream that ran dry was pulled once more, and that
                # pull solved the last answer's children.
                pending = last_children if len(results) == 25 else 0
                assert recorded == expected[: len(expected) - pending]
                stream.checkpoint()
                assert recorded == expected
                assert stream.expansions == len(recorded)
                fill = FillInCost()
                _first, base_table = min_triangulation_and_table(ctx, fill)
                for include, exclude in skipped:
                    assert constrained_min_bags(
                        ctx, fill, base_table,
                        index.mask_of(include), index.mask_of(exclude),
                    ) is None
                skipped_anywhere += len(skipped)
        assert skipped_anywhere


class TestConstrainedTableReuse:
    def test_reused_table_matches_fresh_run(self):
        """Reusing the unconstrained table under the index never changes the
        constrained optimum — against a fresh full DP as ground truth."""
        cost = FillInCost()
        for g in connected_random_graphs(7, 0.45, 3, seed_base=9700):
            ctx = TriangulationContext.build(g)
            _first, base_table = min_triangulation_and_table(ctx, cost)
            # Real partitions from the enumerator itself: every child
            # (include, exclude) pair it would solve for the first pops.
            partitions = [
                (r.include, r.exclude)
                for r in itertools.islice(Session().stream(g, cost), 6)
            ]
            index = ctx.separator_index()
            for include, exclude in partitions:
                if not include and not exclude:
                    continue
                reused = constrained_min_bags(
                    ctx,
                    cost,
                    base_table,
                    index.mask_of(include),
                    index.mask_of(exclude),
                )
                fresh, _ = min_triangulation_and_table(
                    ctx, ConstrainedCost(cost, include=include, exclude=exclude)
                )
                assert (reused is None) == (fresh is None)
                if reused is not None:
                    value, bags = reused
                    assert value == fresh.cost
                    assert satisfies_constraints(g, bags, include, exclude)
