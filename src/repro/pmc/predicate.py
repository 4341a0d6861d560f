"""The potential-maximal-clique predicate and PMC-local structure.

A vertex set ``Ω`` is a *potential maximal clique* (PMC) of ``G`` if some
minimal triangulation of ``G`` has ``Ω`` as a maximal clique — equivalently
(Theorem 2.2), iff ``Ω`` is a bag of some proper tree decomposition.

Bouchitté and Todinca (2001) give the local characterization implemented by
:func:`is_pmc`:  ``Ω`` is a PMC iff

1. no component of ``G \\ Ω`` is *full* (sees all of ``Ω``), and
2. ``Ω`` is *completable*: saturating, inside ``Ω``, the neighborhood
   ``S_i = N(C_i)`` of every component ``C_i`` of ``G \\ Ω`` turns ``Ω``
   into a clique.  Concretely: every pair of ``Ω``-vertices is adjacent in
   ``G`` or contained together in some ``S_i``.

The ``S_i`` are exactly the minimal separators *associated* to ``Ω``
(``MinSep_G(Ω)``), and the pairs ``(S_i, C_i)`` are the full blocks
associated to ``Ω`` (``Blck_G(Ω)``), used throughout the block DP.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..graphs.bitgraph import BitGraph, iter_bits
from ..graphs.graph import Graph, Vertex
from ..separators.blocks import Block

Separator = frozenset[Vertex]
PMC = frozenset[Vertex]

__all__ = [
    "is_pmc",
    "pmc_components_mask",
    "minseps_of_pmc",
    "blocks_of_pmc",
]


def is_pmc(graph: Graph, omega: Iterable[Vertex]) -> bool:
    """Whether ``omega`` is a potential maximal clique of ``graph``."""
    om = set(omega)
    if not om:
        return False
    components = graph.components_without(om)
    neighborhoods = [graph.neighborhood_of_set(c) for c in components]
    # Condition 1: no full component.
    for nbh in neighborhoods:
        if len(nbh) == len(om):  # N(C) ⊆ Ω always; equal size means equal set
            return False
    # Condition 2: completability.
    om_list = list(om)
    for i, u in enumerate(om_list):
        adj_u = graph.adj(u)
        for v in om_list[i + 1 :]:
            if v in adj_u:
                continue
            if not any(u in nbh and v in nbh for nbh in neighborhoods):
                return False
    return True


def pmc_components_mask(
    bitgraph: BitGraph, omega: int
) -> list[tuple[int, int]] | None:
    """Mask-level :func:`is_pmc` that hands back what it computed.

    Returns the ``(C, N(C))`` pairs of the components of ``G \\ Ω``,
    ascending by lowest member index, when ``Ω`` is a PMC, and ``None``
    otherwise.  Condition 2 is evaluated one ``Ω``-vertex at a time: the
    vertices of ``Ω`` that ``u`` is *not* adjacent to must all lie in the
    union of the component neighborhoods containing ``u`` — a pair
    ``(u, v)`` is co-located in some ``S_i`` exactly when that union
    covers ``v``.
    """
    if not omega:
        return None
    adj = bitgraph.adj
    components = bitgraph.components_with_neighborhoods(
        bitgraph.full_mask & ~omega
    )
    neighborhoods = []
    for _comp, nbh in components:
        # Condition 1: no full component (every N(C) is a subset of Ω).
        if nbh == omega:
            return None
        neighborhoods.append(nbh)
    # Condition 2: completability.
    for u in iter_bits(omega):
        bit = 1 << u
        need = omega & ~(adj[u] | bit)
        if not need:
            continue
        cover = 0
        for nbh in neighborhoods:
            if nbh & bit:
                cover |= nbh
        if need & ~cover:
            return None
    return components


def minseps_of_pmc(graph: Graph, omega: Iterable[Vertex]) -> set[Separator]:
    """``MinSep_G(Ω)``: the minimal separators associated to PMC ``Ω``.

    These are the neighborhoods of the components of ``G \\ Ω``; they are
    exactly the minimal separators of ``G`` contained in ``Ω``.
    """
    om = set(omega)
    out: set[Separator] = set()
    for comp in graph.components_without(om):
        nbh = graph.neighborhood_of_set(comp)
        if nbh:
            out.add(frozenset(nbh))
    return out


def blocks_of_pmc(graph: Graph, omega: Iterable[Vertex]) -> list[Block]:
    """``Blck_G(Ω)``: the blocks associated to PMC ``Ω`` (all are full)."""
    om = set(omega)
    out: list[Block] = []
    for comp in graph.components_without(om):
        nbh = graph.neighborhood_of_set(comp)
        out.append(Block(frozenset(nbh), frozenset(comp)))
    return out
