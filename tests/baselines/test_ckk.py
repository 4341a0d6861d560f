"""Tests for the CKK baseline enumerator."""

import itertools

import pytest

from repro.baselines.brute import (
    minimal_triangulations_bruteforce,
    minimal_triangulations_via_mis,
)
from repro.baselines.ckk import ckk_enumeration
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.graphs.graph import Graph
from repro.triangulation.mcs_m import mcs_m
from repro.triangulation.minimality import is_minimal_triangulation
from tests.conftest import connected_random_graphs, fill_key


class TestCompleteness:
    def test_matches_bruteforce(self):
        for g in connected_random_graphs(7, 0.4, 8, seed_base=2100):
            expected = {fill_key(g, h) for h in minimal_triangulations_bruteforce(g)}
            got = [fill_key(g, r.triangulation, ) for r in ckk_enumeration(g)]
            assert len(got) == len(set(got)), "duplicate emission"
            assert set(got) == expected

    def test_matches_mis_oracle_on_cycle(self):
        g = cycle_graph(7)
        expected = {fill_key(g, h) for h in minimal_triangulations_via_mis(g)}
        got = {fill_key(g, r.triangulation) for r in ckk_enumeration(g)}
        assert got == expected  # 42 Catalan triangulations

    def test_paper_example(self, paper_graph):
        results = list(ckk_enumeration(paper_graph))
        assert len(results) == 2

    def test_chordal_single(self):
        results = list(ckk_enumeration(path_graph(6)))
        assert len(results) == 1

    def test_complete_graph(self):
        results = list(ckk_enumeration(complete_graph(4)))
        assert len(results) == 1


class TestContract:
    def test_results_are_minimal(self):
        for g in connected_random_graphs(8, 0.35, 4, seed_base=2200):
            for r in itertools.islice(ckk_enumeration(g), 10):
                assert is_minimal_triangulation(g, r.triangulation)

    def test_separator_key_is_consistent(self, paper_graph):
        from repro.graphs.cliquetree import minimal_separators_chordal

        for r in ckk_enumeration(paper_graph):
            assert r.separators == minimal_separators_chordal(r.triangulation)

    def test_first_result_is_fast_no_init(self, paper_graph):
        # The defining behavioral contrast with RankedTriang: the first
        # result arrives without any separator/PMC precomputation.
        first = next(iter(ckk_enumeration(paper_graph)))
        assert first.rank == 0
        assert first.elapsed_seconds < 1.0

    def test_ranks_sequential(self, paper_graph):
        ranks = [r.rank for r in ckk_enumeration(paper_graph)]
        assert ranks == list(range(len(ranks)))

    def test_custom_triangulator(self):
        g = cycle_graph(6)
        results = list(
            ckk_enumeration(g, triangulator=lambda graph: mcs_m(graph)[0])
        )
        assert len(results) == 14

    def test_empty_graph(self):
        assert list(ckk_enumeration(Graph())) == []

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            list(ckk_enumeration(Graph(edges=[(1, 2), (3, 4)])))
