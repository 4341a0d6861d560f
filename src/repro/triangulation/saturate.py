"""Triangulations from separator sets and back (Parra–Scheffler bridge).

Theorem 2.5 of the paper (Parra and Scheffler, 1997): saturating every
member of a *maximal* set ``M`` of pairwise-parallel minimal separators
yields a minimal triangulation ``H`` with ``MinSep(H) = M``; conversely
every minimal triangulation arises this way from its own minimal separator
set.  These two directions are :func:`saturate_separators` and
:func:`~repro.graphs.cliquetree.minimal_separators_chordal`.

The ranked enumerator identifies each minimal triangulation with its
separator set (the Lawler–Murty "items" are minimal separators), so this
round trip is the heart of the algorithm.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..graphs.bitgraph import BitGraph
from ..graphs.graph import Graph, Vertex
from ..graphs.kernels import validate_kernel

Separator = frozenset[Vertex]

__all__ = ["saturate_separators", "saturate_bags"]


def _saturate_masked(graph: Graph, groups: Iterable[Iterable[Vertex]]) -> Graph:
    """Saturate every vertex group of ``groups`` via the bitset kernel.

    One pass encodes the graph as adjacency bitmasks, each group becomes
    a single mask OR per member (instead of ``O(|U|^2)`` set inserts),
    and one pass decodes back to a label-level :class:`Graph`.

    Raises
    ------
    ValueError
        If some group member is not a vertex of ``graph`` — mirroring
        :meth:`Graph.saturate`, so both kernels reject typo'd labels the
        same way instead of the indexer leaking a :class:`KeyError`.
    """
    bitgraph = BitGraph.from_graph(graph)
    mask_of = bitgraph.indexer.mask_of
    for group in groups:
        try:
            mask = mask_of(group)
        except KeyError as exc:
            raise ValueError(
                f"saturate: vertices not in graph: {exc.args[0]!r}"
            ) from None
        bitgraph.saturate(mask)
    return bitgraph.to_graph()


def saturate_separators(
    graph: Graph,
    separators: Iterable[Separator],
    kernel: str = "bitset",
) -> Graph:
    """``G`` with every separator in ``separators`` saturated into a clique.

    When ``separators`` is a maximal pairwise-parallel set of minimal
    separators the result is a minimal triangulation (Theorem 2.5(1)).
    ``"bitset"`` (default) saturates word-parallel over adjacency
    bitmasks; ``"sets"`` mutates a :class:`Graph` copy directly.
    """
    validate_kernel(kernel)
    if kernel == "bitset" and graph.num_vertices():
        return _saturate_masked(graph, separators)
    out = graph.copy()
    for s in separators:
        out.saturate(s)
    return out


def saturate_bags(
    graph: Graph,
    bags: Iterable[Iterable[Vertex]],
    kernel: str = "bitset",
) -> Graph:
    """``H_T``: the graph obtained from ``G`` by saturating every bag.

    This is the graph the constraint semantics of Section 6.1 are defined
    on (``κ[I,X]`` checks clique-ness of constraint separators in ``H_T``).
    Saturating is the same operation on bags as on separators.
    """
    return saturate_separators(graph, bags, kernel)
