"""Clique trees of chordal graphs.

A *clique tree* of a chordal graph ``H`` is a tree decomposition whose bags
are exactly ``MaxClq(H)``, each appearing once (Section 2 of the paper).  By
the classic result surveyed by Blair and Peyton (1993), the clique trees of
``H`` are exactly the **maximum-weight spanning trees** of the *clique
graph*: the graph over ``MaxClq(H)`` where two cliques are adjacent when
they meet, weighted by the size of their intersection.

The *adhesions* of any clique tree — the intersections of adjacent bags —
are precisely the minimal separators of ``H``; this is how the ranked
enumerator recovers ``MinSep(H)`` from a triangulation ``H``
(Parra–Scheffler, Theorem 2.5).

Every clique tree of the library (:mod:`repro.core.spanning`'s
enumeration and :class:`~repro.core.decomposition.TreeDecomposition`
included) is built from the pieces here: one :class:`UnionFind`, one
:func:`kruskal` pass, :func:`clique_graph_edges` and :func:`join_forest`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .graph import Graph, Vertex
from .chordal import maximal_cliques_chordal
from .ordering import vertex_set_sort_key

Bag = frozenset[Vertex]
WeightedEdge = tuple[float, int, int]  # (weight, node index a, node index b)

__all__ = ["clique_tree", "clique_tree_from_cliques", "minimal_separators_chordal"]


class UnionFind:
    """Union-find over the integers ``0..n-1`` (path halving)."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; ``False`` if already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def kruskal(
    n: int,
    edges: Sequence[WeightedEdge],
    include: Iterable[int] = (),
    exclude: Iterable[int] = (),
) -> tuple[float, list[int]] | None:
    """A maximum-weight spanning forest of the graph on ``0..n-1``.

    Takes the ``include`` edges (indexes into ``edges``) first, then the
    rest but ``exclude`` by non-increasing weight, ties in list order,
    each unless it closes a cycle (exact on a graphic matroid).  Returns
    ``(weight, accepted indexes in acceptance order)``, or ``None`` when
    ``include`` closes a cycle.
    """
    forest = UnionFind(n)
    weight = 0
    accepted: list[int] = []
    for i in include:
        w, a, b = edges[i]
        if not forest.union(a, b):
            return None
        weight += w
        accepted.append(i)
    skipped = {*include, *exclude}
    for i in sorted(range(len(edges)), key=lambda i: -edges[i][0]):
        w, a, b = edges[i]
        if i not in skipped and forest.union(a, b):
            weight += w
            accepted.append(i)
    return weight, accepted


def clique_graph_edges(cliques: Sequence[Bag]) -> list[tuple[int, int, int]]:
    """``(|Ki ∩ Kj|, i, j)`` for every ``i < j`` whose cliques meet."""
    edges = []
    for i, ci in enumerate(cliques):
        for j in range(i + 1, len(cliques)):
            w = len(ci & cliques[j])
            if w:
                edges.append((w, i, j))
    return edges


def join_forest(
    n: int, edges: Iterable[tuple[int, int]], order: Iterable[int]
) -> list[tuple[int, int]]:
    """The edges that join the forest ``edges`` on ``0..n-1`` into a
    tree: from the first component to each other one, each component
    through its first node in ``order``."""
    forest = UnionFind(n)
    for a, b in edges:
        forest.union(a, b)
    firsts: dict[int, int] = {}
    for node in order:
        firsts.setdefault(forest.find(node), node)
    heads = list(firsts.values())
    return [(heads[0], other) for other in heads[1:]]


def _kruskal_forest(cliques: Iterable[Bag]) -> tuple[list[Bag], list[tuple[int, int]]]:
    """``cliques`` in ``(size, labels)`` order, and the Kruskal forest of
    their clique graph as index pairs into that list."""
    ordered = sorted(cliques, key=lambda c: (len(c), vertex_set_sort_key(c)))
    edges = clique_graph_edges(ordered)
    return ordered, [edges[i][1:] for i in kruskal(len(ordered), edges)[1]]


def clique_tree_from_cliques(cliques: set[Bag]) -> list[tuple[Bag, Bag]]:
    """A clique tree over the given maximal cliques, as a list of tree edges.

    Kruskal on the clique graph, the cliques taken in ``(size, labels)``
    order.  For the cliques of a connected chordal graph this yields a
    spanning tree satisfying the junction-tree property.  Only cliques
    that meet are joined, so every adhesion is non-empty, and over the
    cliques of a disconnected graph the result is a spanning forest;
    :func:`clique_tree` joins it into a tree.
    """
    ordered, forest = _kruskal_forest(cliques)
    return [(ordered[a], ordered[b]) for a, b in forest]


def clique_tree(graph: Graph) -> tuple[set[Bag], list[tuple[Bag, Bag]]]:
    """A clique tree of chordal ``graph``: ``(bags, tree_edges)``.

    The bags are ``MaxClq(graph)``.  On a disconnected graph the forest is
    joined into a tree by empty-adhesion edges from the first component's
    clique (in label order) to each other component's, so the result is
    always a valid tree decomposition.

    Raises
    ------
    ValueError
        If ``graph`` is not chordal.
    """
    cliques = maximal_cliques_chordal(graph)
    ordered, tree = _kruskal_forest(cliques)
    if len(tree) < len(ordered) - 1:
        by_label = sorted(range(len(ordered)), key=lambda i: vertex_set_sort_key(ordered[i]))
        tree += join_forest(len(ordered), tree, by_label)
    return cliques, [(ordered[a], ordered[b]) for a, b in tree]


def minimal_separators_chordal(graph: Graph) -> set[frozenset[Vertex]]:
    """The minimal separators of a chordal graph.

    These are exactly the adhesions (pairwise intersections of adjacent
    bags) of any clique tree; the forest of
    :func:`clique_tree_from_cliques` has no empty adhesion, so it gives
    them as they are.

    Raises
    ------
    ValueError
        If ``graph`` is not chordal.
    """
    return {a & b for a, b in clique_tree_from_cliques(maximal_cliques_chordal(graph))}
