"""Tree decompositions: representation, validation, properness.

A tree decomposition of ``G`` is a tree whose nodes carry *bags* of
vertices such that vertices and edges are covered and each vertex's
occurrences form a subtree (the junction-tree property).  A decomposition
is **proper** when no other decomposition strictly subsumes it (obtained by
splitting a bag or removing one); Theorem 2.2(3): the proper tree
decompositions are exactly the clique trees of the minimal triangulations.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..graphs.graph import Graph, Vertex
from ..graphs.chordal import maximal_cliques_chordal
from ..graphs.cliquetree import UnionFind, clique_tree_from_cliques, join_forest
from ..triangulation.minimality import is_minimal_triangulation
from ..triangulation.saturate import saturate_bags

Bag = frozenset[Vertex]

__all__ = ["TreeDecomposition"]


class TreeDecomposition:
    """A tree decomposition: node → bag mapping plus tree edges.

    Nodes are integers ``0..k-1``.  Use :meth:`from_bags` to build a
    decomposition from the maximal cliques of a triangulation, or the
    constructor for explicit trees.
    """

    def __init__(
        self,
        bags: Mapping[int, Iterable[Vertex]],
        edges: Iterable[tuple[int, int]],
    ) -> None:
        self.bags: dict[int, Bag] = {n: frozenset(b) for n, b in bags.items()}
        self.edges: list[tuple[int, int]] = [(a, b) for a, b in edges]
        for a, b in self.edges:
            if a not in self.bags or b not in self.bags:
                raise ValueError(f"tree edge ({a}, {b}) references unknown node")
        if len(self.edges) != max(len(self.bags) - 1, 0):
            raise ValueError(
                f"{len(self.bags)} nodes need {max(len(self.bags) - 1, 0)} tree "
                f"edges, got {len(self.edges)}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bags(cls, bags: Iterable[Iterable[Vertex]]) -> "TreeDecomposition":
        """Build a clique-tree-shaped decomposition from a bag set.

        Connects the bags with a maximum-intersection-weight spanning tree;
        when the bags are the maximal cliques of a chordal graph this is a
        clique tree (junction property guaranteed).  A forest (disconnected
        bags, or a repeated bag) is joined through first nodes in input order.
        """
        bag_list = [frozenset(b) for b in bags]
        index = {bag: i for i, bag in enumerate(bag_list)}
        edges = [(index[a], index[b]) for a, b in clique_tree_from_cliques(set(bag_list))]
        edges += join_forest(len(bag_list), edges, range(len(bag_list)))
        return cls(dict(enumerate(bag_list)), edges)

    @classmethod
    def from_triangulation(cls, triangulation: Graph) -> "TreeDecomposition":
        """A clique tree of a chordal graph."""
        return cls.from_bags(maximal_cliques_chordal(triangulation))

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Largest bag size minus one (−1 for the empty decomposition)."""
        return max((len(b) for b in self.bags.values()), default=0) - 1

    def bag_set(self) -> frozenset[Bag]:
        """The set of distinct bags."""
        return frozenset(self.bags.values())

    def __len__(self) -> int:
        return len(self.bags)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def is_valid(self, graph: Graph) -> bool:
        """The three tree-decomposition axioms w.r.t. ``graph``.

        Checks vertex cover, edge cover, junction-tree property, and that
        the edge list forms a tree (acyclic and connected) over the nodes.
        """
        if not self._is_tree():
            return False
        covered: set[Vertex] = set()
        for bag in self.bags.values():
            covered |= bag
        if covered != graph.vertex_set():
            return False
        for u, v in graph.edges():
            if not any(u in bag and v in bag for bag in self.bags.values()):
                return False
        return all(self._occurrences_connected(v) for v in graph.vertices)

    def _is_tree(self) -> bool:
        """``n - 1`` edges, each joining two components: a spanning tree."""
        position = {node: i for i, node in enumerate(self.bags)}
        forest = UnionFind(len(position))
        return len(self.edges) == max(len(position) - 1, 0) and all(
            forest.union(position[a], position[b]) for a, b in self.edges
        )

    def _occurrences_connected(self, vertex: Vertex) -> bool:
        """Inside a tree, the nodes holding ``vertex`` are connected
        exactly when they span one edge fewer than nodes."""
        nodes = {n for n, bag in self.bags.items() if vertex in bag}
        inner = sum(a in nodes and b in nodes for a, b in self.edges)
        return not nodes or inner == len(nodes) - 1

    def is_clique_tree(self, graph: Graph) -> bool:
        """Whether this is a clique tree of ``graph`` (Section 2).

        Requires validity, bags = ``MaxClq(graph)``, and bag distinctness.
        """
        if not self.is_valid(graph):
            return False
        if len(self.bag_set()) != len(self.bags):
            return False
        try:
            cliques = maximal_cliques_chordal(graph)
        except ValueError:
            return False
        return self.bag_set() == cliques

    def is_proper(self, graph: Graph) -> bool:
        """Whether this decomposition is proper w.r.t. ``graph``.

        Theorem 2.2(3): proper ⟺ clique tree of a minimal triangulation.
        """
        if not self.is_valid(graph):
            return False
        if len(self.bag_set()) != len(self.bags):
            return False
        filled = saturate_bags(graph, self.bags.values())
        if not is_minimal_triangulation(graph, filled):
            return False
        try:
            return self.bag_set() == maximal_cliques_chordal(filled)
        except ValueError:  # pragma: no cover - filled is chordal here
            return False

    def __repr__(self) -> str:
        return f"TreeDecomposition(nodes={len(self.bags)}, width={self.width})"
