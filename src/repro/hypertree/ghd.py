"""Generalized hypertree decompositions (GHDs).

The paper frames hypergraph decompositions as its hypergraph application:
*"the generalization to hypergraphs, generalized hypertree decomposition,
is a tree decomposition of the primal graph along with a cover of each bag
by hyperedges"* (Section 1), with (generalized) hypertree width as the
associated split-monotone bag cost.

This module closes that loop: given a hypergraph ``H`` (e.g. a join
query), it

1. runs the ranked enumerator on the primal graph with the
   :class:`~repro.costs.hypergraph.HypertreeWidthCost` bag cost, and
2. equips each decomposition with explicit minimum edge covers per bag,
   yielding a :class:`GeneralizedHypertreeDecomposition` whose
   ``ghw``-width is certified by construction.

Every minimum-ghw *generalized* hypertree decomposition arises from some
tree decomposition of the primal graph, and Carmeli et al. show bag-
minimal ones come from proper decompositions — so ranked enumeration over
minimal triangulations is a complete search space for bag-minimal GHDs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from ..api.session import Session
from ..costs.hypergraph import Hypergraph, HypertreeWidthCost, minimum_edge_cover_size
from ..core.context import TriangulationContext
from ..core.decomposition import TreeDecomposition
from ..core.mintriang import min_triangulation

Hyperedge = frozenset

__all__ = [
    "GeneralizedHypertreeDecomposition",
    "ghd_from_tree_decomposition",
    "minimum_ghd",
    "ranked_ghds",
]


@dataclass(frozen=True)
class GeneralizedHypertreeDecomposition:
    """A tree decomposition plus a hyperedge cover per bag.

    Attributes
    ----------
    decomposition:
        The underlying tree decomposition of the primal graph.
    covers:
        ``node -> tuple of hyperedges`` whose union contains the node's bag.
    """

    hypergraph: Hypergraph
    decomposition: TreeDecomposition
    covers: dict[int, tuple[Hyperedge, ...]]

    @property
    def width(self) -> int:
        """The generalized hypertree width of this decomposition."""
        if not self.covers:
            return 0
        return max(len(c) for c in self.covers.values())

    def is_valid(self) -> bool:
        """Structural validity: TD axioms + every bag covered."""
        primal = self.hypergraph.primal_graph()
        if not self.decomposition.is_valid(primal):
            return False
        for node, bag in self.decomposition.bags.items():
            cover = self.covers.get(node)
            if cover is None:
                return False
            union: set = set()
            for e in cover:
                union |= e
            if not bag <= union:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"GHD(width={self.width}, nodes={len(self.decomposition)}, "
            f"hyperedges={len(self.hypergraph.hyperedges)})"
        )


def _minimum_cover(hypergraph: Hypergraph, bag: frozenset) -> tuple[Hyperedge, ...]:
    """An explicit minimum hyperedge cover of ``bag`` (branch and bound)."""
    target = minimum_edge_cover_size(hypergraph, bag)
    # Re-run the search keeping the witness; bags are small so the simple
    # iterative deepening over cover size is fine.
    edges = [e for e in hypergraph.hyperedges if e & bag]

    best: tuple[Hyperedge, ...] | None = None

    def branch(uncovered: frozenset, used: list[Hyperedge]) -> bool:
        nonlocal best
        if not uncovered:
            best = tuple(used)
            return True
        if len(used) >= target:
            return False
        v = next(iter(uncovered))
        for e in edges:
            if v in e:
                used.append(e)
                if branch(uncovered - e, used):
                    return True
                used.pop()
        return False

    branch(frozenset(bag), [])
    assert best is not None  # cover size was certified by target
    return best


def ghd_from_tree_decomposition(
    hypergraph: Hypergraph, decomposition: TreeDecomposition
) -> GeneralizedHypertreeDecomposition:
    """Equip a tree decomposition of the primal graph with minimum covers."""
    covers = {
        node: _minimum_cover(hypergraph, bag)
        for node, bag in decomposition.bags.items()
    }
    return GeneralizedHypertreeDecomposition(
        hypergraph=hypergraph, decomposition=decomposition, covers=covers
    )


def minimum_ghd(
    hypergraph: Hypergraph,
    context: TriangulationContext | None = None,
) -> GeneralizedHypertreeDecomposition:
    """A bag-minimal GHD of minimum generalized hypertree width.

    Optimizes the ``ghw`` bag cost over minimal triangulations of the
    primal graph (Theorem 4.4 instantiated with the hypertree-width cost),
    then materializes covers.
    """
    primal = hypergraph.primal_graph()
    cost = HypertreeWidthCost(hypergraph)
    tri = min_triangulation(primal, cost, context=context)
    assert tri is not None
    td = TreeDecomposition.from_bags(tri.bags)
    return ghd_from_tree_decomposition(hypergraph, td)


def ranked_ghds(
    hypergraph: Hypergraph,
    context: TriangulationContext | None = None,
    per_triangulation: int | None = 1,
) -> Iterator[GeneralizedHypertreeDecomposition]:
    """GHDs by non-decreasing generalized hypertree width.

    Streams the ranked proper tree decompositions of the primal graph
    under the ``ghw`` cost and covers each bag on the fly; by default one
    clique tree per triangulation (bag-equivalent clique trees have equal
    ``ghw``).  The stream runs on a session of its own, closed with the
    generator; pass ``context`` to reuse an initialization across calls.
    """
    primal = hypergraph.primal_graph()
    cost = HypertreeWidthCost(hypergraph)
    with Session(max_contexts=1) as session:
        for ranked in session.decomposition_stream(
            primal, cost, context=context, per_triangulation=per_triangulation
        ):
            yield ghd_from_tree_decomposition(hypergraph, ranked.decomposition)
