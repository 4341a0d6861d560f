"""Unit tests for the dense bitset graph kernel.

Every query of :class:`BitGraph` is checked against the label-level
:class:`Graph` reference on a corpus of structured and random graphs —
the per-operation half of the differential harness (the end-to-end half
lives in ``tests/property/test_kernel_equivalence.py``).
"""

import pytest

from repro.graphs.bitgraph import BitGraph, VertexIndexer, iter_bits
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    paper_example_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph

from ..conftest import connected_random_graphs


def corpus():
    zoo = [
        Graph(),
        path_graph(1),
        path_graph(2),
        path_graph(6),
        cycle_graph(5),
        complete_graph(5),
        star_graph(4),
        grid_graph(3, 3),
        paper_example_graph(),
        erdos_renyi(9, 0.3, seed=3),  # may be disconnected — on purpose
        erdos_renyi(10, 0.5, seed=4),
    ]
    zoo.extend(connected_random_graphs(8, 0.4, 3, seed_base=500))
    return zoo


def encode(graph):
    bitgraph = BitGraph.from_graph(graph)
    return bitgraph, bitgraph.indexer


class TestVertexIndexer:
    def test_round_trip_and_order(self):
        ix = VertexIndexer(["b", "a", 7])
        assert len(ix) == 3
        assert ix.labels == ("b", "a", 7)
        assert ix.index_of("a") == 1
        assert ix.label_of(2) == 7
        assert "b" in ix and "z" not in ix

    def test_mask_round_trip(self):
        ix = VertexIndexer(range(10))
        mask = ix.mask_of([2, 5, 9])
        assert mask == (1 << 2) | (1 << 5) | (1 << 9)
        assert ix.labels_of(mask) == frozenset({2, 5, 9})
        assert ix.sorted_labels_of(mask) == [2, 5, 9]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            VertexIndexer([1, 2, 1])

    def test_arbitrary_hashable_labels(self):
        labels = [(0, 1), "x", frozenset({3}), None]
        ix = VertexIndexer(labels)
        mask = ix.mask_of(labels)
        assert ix.labels_of(mask) == frozenset(labels)


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101001)) == [0, 3, 5]


class TestBitGraphEncoding:
    def test_graph_round_trip(self):
        for g in corpus():
            bitgraph, _ = encode(g)
            assert bitgraph.to_graph() == g
            assert bitgraph.num_vertices() == g.num_vertices()

    def test_copy_is_independent(self):
        g = cycle_graph(4)
        bitgraph, ix = encode(g)
        clone = bitgraph.copy()
        clone.saturate(bitgraph.full_mask)
        assert bitgraph.to_graph() == g
        assert clone.to_graph() == Graph.complete(g.vertices)

    def test_induced_view(self):
        g = grid_graph(3, 3)
        bitgraph, ix = encode(g)
        keep = [(0, 0), (0, 1), (1, 1), (2, 2)]
        view = bitgraph.induced(ix.mask_of(keep))
        assert view.to_graph() == g.subgraph(keep)


class TestBitGraphQueries:
    def test_neighborhood_of_set(self):
        for g in corpus():
            bitgraph, ix = encode(g)
            vs = list(g.vertices)
            for probe in (vs[:1], vs[: len(vs) // 2], vs):
                if not probe:
                    continue
                expected = g.neighborhood_of_set(probe)
                got = bitgraph.neighborhood_of_set(ix.mask_of(probe))
                assert ix.labels_of(got) == frozenset(expected)

    def test_components_without(self):
        for g in corpus():
            bitgraph, ix = encode(g)
            vs = list(g.vertices)
            for removed in ([], vs[:2], vs[::2]):
                expected = sorted(
                    map(frozenset, g.components_without(removed)), key=sorted
                )
                got = sorted(
                    (
                        ix.labels_of(m)
                        for m in bitgraph.components_without(ix.mask_of(removed))
                    ),
                    key=sorted,
                )
                assert got == expected

    def test_components_with_neighborhoods(self):
        for g in corpus():
            bitgraph, ix = encode(g)
            vs = list(g.vertices)
            removed = ix.mask_of(vs[::3])
            for comp, nbh in bitgraph.components_with_neighborhoods(
                bitgraph.full_mask & ~removed
            ):
                assert nbh == bitgraph.neighborhood_of_set(comp)

    def test_component_of(self):
        g = path_graph(6)
        bitgraph, ix = encode(g)
        comp = bitgraph.component_of(ix.index_of(0), removed=ix.mask_of([3]))
        assert ix.labels_of(comp) == frozenset({0, 1, 2})
        with pytest.raises(ValueError):
            bitgraph.component_of(ix.index_of(3), removed=ix.mask_of([3]))

    def test_is_clique(self):
        for g in corpus():
            bitgraph, ix = encode(g)
            vs = list(g.vertices)
            for probe in (vs[:1], vs[:3], vs):
                assert bitgraph.is_clique(ix.mask_of(probe)) == g.is_clique(probe)

    def test_missing_pair_count(self):
        for g in corpus():
            bitgraph, ix = encode(g)
            vs = list(g.vertices)
            for probe in (vs[:3], vs):
                assert bitgraph.missing_pair_count(ix.mask_of(probe)) == sum(
                    1 for _ in g.missing_edges(probe)
                )

    def test_is_connected(self):
        for g in corpus():
            bitgraph, _ = encode(g)
            assert bitgraph.is_connected() == g.is_connected()

    def test_saturate_matches_graph_saturate(self):
        for g in corpus():
            if g.num_vertices() < 3:
                continue
            bitgraph, ix = encode(g)
            bag = list(g.vertices)[:3]
            expected = g.copy()
            expected.saturate(bag)
            clone = bitgraph.copy()
            clone.saturate(ix.mask_of(bag))
            assert clone.to_graph() == expected


class TestBfsOrder:
    def test_prefix_connectivity_invariant(self):
        # Every prefix of the order must induce at most as many components
        # as the whole graph (the PMC enumerator's requirement).
        for g in corpus():
            bitgraph, ix = encode(g)
            order = [ix.label_of(i) for i in bitgraph.bfs_order()]
            assert sorted(map(repr, order)) == sorted(map(repr, g.vertices))
            total = len(g.connected_components())
            for i in range(1, len(order) + 1):
                sub = g.subgraph(order[:i])
                assert len(sub.connected_components()) <= total

    def test_start_vertex_honored(self):
        g = grid_graph(2, 3)
        bitgraph, ix = encode(g)
        start = ix.index_of((1, 2))
        assert bitgraph.bfs_order(start)[0] == start
        with pytest.raises(ValueError):
            path = path_graph(2)
            bg2 = BitGraph.from_graph(path)
            bg2.bfs_order(5)
