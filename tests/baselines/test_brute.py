"""Tests for the exhaustive enumeration oracles (and their agreement)."""

import pytest

from repro.baselines.brute import (
    minimal_triangulations_bruteforce,
    minimal_triangulations_via_mis,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    paper_example_graph,
    path_graph,
)
from repro.graphs.graph import Graph
from repro.triangulation.minimality import is_minimal_triangulation
from tests.conftest import connected_random_graphs, fill_key


class TestBruteforce:
    def test_chordal_graph_unique(self):
        g = path_graph(5)
        results = minimal_triangulations_bruteforce(g)
        assert len(results) == 1
        assert results[0] == g

    def test_cycle_counts(self):
        # Minimal triangulations of C_n = triangulations of a polygon
        # = Catalan(n-2):  C4 → 2, C5 → 5, C6 → 14.
        assert len(minimal_triangulations_bruteforce(cycle_graph(4))) == 2
        assert len(minimal_triangulations_bruteforce(cycle_graph(5))) == 5
        assert len(minimal_triangulations_bruteforce(cycle_graph(6))) == 14

    def test_paper_example(self, paper_graph):
        assert len(minimal_triangulations_bruteforce(paper_graph)) == 2

    def test_every_output_minimal(self):
        for g in connected_random_graphs(6, 0.4, 5, seed_base=1900):
            for h in minimal_triangulations_bruteforce(g):
                assert is_minimal_triangulation(g, h)

    def test_guard(self):
        with pytest.raises(ValueError):
            minimal_triangulations_bruteforce(erdos_renyi(12, 0.2, seed=0))


class TestMisOracle:
    def test_agrees_with_bruteforce(self):
        for g in connected_random_graphs(7, 0.4, 8, seed_base=2000):
            a = {fill_key(g, h) for h in minimal_triangulations_bruteforce(g)}
            b = {fill_key(g, h) for h in minimal_triangulations_via_mis(g)}
            assert a == b

    def test_complete_graph(self):
        results = minimal_triangulations_via_mis(complete_graph(4))
        assert len(results) == 1

    def test_catalan_on_c7(self):
        # Catalan(5) = 42; brute force over 14 non-edges is slow, the MIS
        # oracle is the fast ground truth at this size.
        assert len(minimal_triangulations_via_mis(cycle_graph(7))) == 42

    def test_graphs_without_separators_are_their_own_triangulation(self):
        for g in (Graph(), Graph(vertices=[1, 2, 3]), path_graph(5)):
            results = minimal_triangulations_via_mis(g)
            assert len(results) == 1
            assert results[0] == g

    def test_cycle_counts(self):
        # Catalan(n-2), as for the brute-force oracle: C4 → 2, C5 → 5, C6 → 14.
        for n, count in ((4, 2), (5, 5), (6, 14)):
            assert len(minimal_triangulations_via_mis(cycle_graph(n))) == count

    def test_every_output_minimal(self):
        for g in connected_random_graphs(8, 0.35, 5, seed_base=2050):
            for h in minimal_triangulations_via_mis(g):
                assert is_minimal_triangulation(g, h)

    def test_no_duplicates(self):
        g = erdos_renyi(10, 0.3, seed=3)
        fills = [fill_key(g, h) for h in minimal_triangulations_via_mis(g)]
        assert len(fills) == len(set(fills))


class TestBitsetKernelAgainstOracle:
    """Brute-force cross-check of the bitset kernel (ISSUE 3 satellite).

    On every graph with ≤ 8 vertices in the corpus, exhaustively
    enumerate with ``kernel="bitset"`` and verify each emitted
    triangulation is chordal, inclusion-minimal (its fill set appears in
    the brute-force oracle's answer set), and cost-correct — and that
    the *complete* enumeration matches the oracle exactly.
    """

    def _corpus(self):
        corpus = [
            path_graph(4),
            cycle_graph(5),
            cycle_graph(6),
            complete_graph(4),
        ]
        corpus.extend(connected_random_graphs(7, 0.4, 4, seed_base=2100))
        # Denser n=8 samples: brute force is exponential in the number of
        # *non*-edges, so sparse 8-vertex graphs dominate the suite's time.
        corpus.extend(connected_random_graphs(8, 0.55, 3, seed_base=2200))
        return [g for g in corpus if g.num_vertices() <= 8]

    def test_bitset_enumeration_matches_bruteforce(self):
        from repro.api import Session
        from repro.graphs.chordal import is_chordal

        session = Session(kernel="bitset")
        for g in self._corpus():
            oracle_fills = {
                fill_key(g, h) for h in minimal_triangulations_bruteforce(g)
            }
            emitted_fills = set()
            with session.stream(g, "fill") as stream:
                for result in stream:
                    tri = result.triangulation
                    h = tri.chordal_graph
                    assert is_chordal(h), f"non-chordal output on {g!r}"
                    assert is_minimal_triangulation(g, h)
                    fill = fill_key(g, h)
                    assert fill in oracle_fills, f"not inclusion-minimal on {g!r}"
                    assert result.cost == len(fill), "fill cost mismatch"
                    assert fill not in emitted_fills, "duplicate emission"
                    emitted_fills.add(fill)
            assert emitted_fills == oracle_fills, (
                f"bitset kernel missed triangulations on {g!r}"
            )

    def test_bitset_width_cost_correct(self):
        from repro.api import Session
        from repro.graphs.chordal import treewidth_chordal

        session = Session(kernel="bitset")
        for g in self._corpus():
            response = session.top(g, "width", k=5)
            for result in response.results:
                h = result.triangulation.chordal_graph
                assert result.cost == treewidth_chordal(h)
                assert result.triangulation.width == treewidth_chordal(h)


class TestAtomDecompositionAgainstOracle:
    """Brute-force cross-check of the atom decomposition (ISSUE 4).

    On every graph with ≤ 8 vertices in the corpus: decompose into
    clique-minimal-separator atoms, brute-force every atom's minimal
    triangulations independently, take every combination (union of
    per-atom fill sets), and verify the resulting set equals the direct
    brute-force minimal-triangulation set of the whole graph — Leimer's
    product theorem, checked exhaustively.  The bag-partition corollary
    (maximal cliques of the combination = disjoint union of the atoms'
    maximal cliques) is what makes per-atom cost composition exact, and
    is checked alongside.
    """

    def _corpus(self):
        from repro.graphs.generators import (
            bowtie_graph,
            grid_graph,
            ring_of_cycles,
            tree_graph,
        )

        corpus = [
            path_graph(5),
            cycle_graph(6),
            bowtie_graph(3),
            ring_of_cycles(2, 4),
            tree_graph(7, seed=3),
            grid_graph(2, 4),
            paper_example_graph(),
        ]
        corpus.extend(connected_random_graphs(7, 0.35, 5, seed_base=2300))
        corpus.extend(connected_random_graphs(8, 0.45, 4, seed_base=2400))
        return [g for g in corpus if g.num_vertices() <= 8]

    def test_atom_product_equals_direct_bruteforce(self):
        from itertools import product

        from repro.graphs.chordal import maximal_cliques_chordal
        from repro.preprocess.atoms import atom_decomposition

        for g in self._corpus():
            decomposition = atom_decomposition(g)
            per_atom = [
                minimal_triangulations_bruteforce(g.subgraph(atom))
                for atom in decomposition.atoms
            ]
            oracle = {
                fill_key(g, h) for h in minimal_triangulations_bruteforce(g)
            }
            combined = set()
            for combo in product(*per_atom):
                fill = frozenset()
                bag_lists = []
                for atom_h in combo:
                    fill |= fill_key(g, atom_h)
                    bag_lists.append(maximal_cliques_chordal(atom_h))
                combined.add(fill)
                # Bag partition: atoms contribute disjoint maximal-clique
                # sets, none contained in a bag of another atom.
                all_bags = [b for bags in bag_lists for b in bags]
                assert len(all_bags) == len(set(all_bags)), g
                for i, b1 in enumerate(all_bags):
                    for b2 in all_bags[i + 1:]:
                        assert not (b1 < b2 or b2 < b1), (g, b1, b2)
            assert combined == oracle, (
                f"atom product disagrees with brute force on {g!r}"
            )

    def test_preprocessed_pipeline_matches_bruteforce(self):
        from repro.api import Session

        session = Session()  # preprocessing on (default)
        for g in self._corpus():
            oracle = {
                fill_key(g, h) for h in minimal_triangulations_bruteforce(g)
            }
            emitted = []
            with session.stream(g, "fill") as stream:
                for result in stream:
                    h = result.triangulation.chordal_graph
                    assert is_minimal_triangulation(g, h)
                    fill = fill_key(g, h)
                    assert result.cost == len(fill)
                    emitted.append(fill)
            assert len(emitted) == len(set(emitted)), "duplicate emission"
            assert set(emitted) == oracle, (
                f"preprocessed pipeline missed triangulations on {g!r}"
            )
