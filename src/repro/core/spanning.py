"""Enumerating all clique trees of a chordal graph.

The clique trees of a chordal graph ``H`` are exactly the maximum-weight
spanning trees of its clique graph (nodes ``MaxClq(H)``, an edge between
two cliques that meet, weighted by the size of their intersection).
Following the reduction used by Carmeli et al. (via Jordan 2002 and the
all-spanning-trees enumeration of Yamada, Kataoka and Watanabe 2010),
:func:`maximum_spanning_trees` enumerates every maximum-weight spanning
tree with polynomial delay by Lawler-style include/exclude partitioning;
each partition is solved by the one Kruskal pass of
:mod:`repro.graphs.cliquetree` under its forced and forbidden edges.
:func:`clique_trees` runs it over the clique graph of a triangulation,
the cliques in label order.

Decompositions mode rests on it: the proper tree decompositions are the
clique trees of the minimal triangulations (Proposition 6.1), and all
clique trees of one triangulation share its cost.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from ..graphs.graph import Graph
from ..graphs.chordal import maximal_cliques_chordal
from ..graphs.cliquetree import WeightedEdge, clique_graph_edges, kruskal
from ..graphs.ordering import vertex_set_sort_key
from .decomposition import TreeDecomposition

__all__ = ["maximum_spanning_trees", "clique_trees", "count_clique_trees"]


def maximum_spanning_trees(
    n: int, edges: Sequence[WeightedEdge]
) -> Iterator[list[int]]:
    """All maximum-weight spanning trees of a graph on ``0..n-1``.

    Yields each tree once, as a sorted list of indexes into ``edges``.
    Lawler partitioning: pop a partition's optimal tree, emit it, and
    split the remainder by the first excluded tree edge.  A partition's
    candidate is the Kruskal forest under its forced and forbidden
    edges, kept only when it is a spanning tree of the optimum weight.
    """
    weight, tree = kruskal(n, edges)
    if len(tree) != n - 1:
        return
    stack = [(frozenset(), frozenset(), tree)]
    while stack:
        include, exclude, tree = stack.pop()
        yield sorted(tree)
        free = [i for i in tree if i not in include]
        for k, pivot in enumerate(free):
            child = (include.union(free[:k]), exclude | {pivot})
            found = kruskal(n, edges, *child)
            if found is not None and found[0] == weight and len(found[1]) == n - 1:
                stack.append((*child, found[1]))


def clique_trees(triangulation: Graph) -> Iterator[TreeDecomposition]:
    """All clique trees of a connected chordal graph.

    Raises
    ------
    ValueError
        If the graph is not chordal or not connected (a disconnected
        chordal graph has clique *forests*; stitching them into trees is
        arbitrary and left to the caller).
    """
    if triangulation.num_vertices() and not triangulation.is_connected():
        raise ValueError("clique-tree enumeration requires a connected graph")
    cliques = sorted(
        maximal_cliques_chordal(triangulation), key=vertex_set_sort_key
    )
    edges = clique_graph_edges(cliques)
    bags = dict(enumerate(cliques))
    for tree in maximum_spanning_trees(len(cliques), edges):
        yield TreeDecomposition(bags, [edges[i][1:] for i in tree])


def count_clique_trees(triangulation: Graph, limit: int | None = None) -> int:
    """The number of clique trees (stop early at ``limit`` if given)."""
    count = 0
    trees = clique_trees(triangulation)
    while (limit is None or count < limit) and next(trees, None) is not None:
        count += 1
    return count
