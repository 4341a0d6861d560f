"""Dense bitset graph kernel for the enumeration hot path.

Every stage of the pipeline — Berry–Bordat–Cogis minimal-separator
enumeration, Bouchitté–Todinca PMC listing, and the block DP behind
ranked enumeration — bottoms out in neighborhoods and connected
components of vertex-deleted subgraphs.  :class:`Graph` computes those
over Python ``set`` objects of arbitrary hashable labels, which is
flexible but allocation-heavy.  :class:`BitGraph` is the dense
alternative: vertices become bit positions, vertex sets become Python
ints, and the hot subroutines become word-parallel ``&``/``|``/``^``
operations on those ints (one machine word for graphs up to 63 vertices,
gracefully widening beyond).

The kernel is internal.  :class:`Graph` stays the public, label-level
API; :class:`VertexIndexer` translates between the two worlds exactly
once, at the :class:`~repro.core.context.TriangulationContext` boundary
(``kernel="bitset"``), and the differential test suite
(``tests/property/test_kernel_equivalence.py``) proves that both kernels
produce identical minimal-separator sets, PMC sets, and bit-identical
ranked-enumeration output order.

Conventions used throughout:

* a *vertex* is an ``int`` index in ``0..n-1``;
* a *vertex set* is an ``int`` mask with bit ``i`` set for vertex ``i``;
* iteration over a mask's bits uses the lowest-set-bit idiom
  ``low = m & -m; i = low.bit_length() - 1; m ^= low``, ascending — so
  every mask-level loop is deterministic in index order.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from .graph import Graph, Vertex

__all__ = ["VertexIndexer", "BitGraph", "iter_bits"]


def iter_bits(mask: int) -> Iterator[int]:
    """The set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexIndexer:
    """A bijection between hashable vertex labels and dense ``0..n-1`` ints.

    Labels keep their insertion order (matching :class:`Graph`'s vertex
    iteration order), so index ``i`` is the ``i``-th inserted vertex and
    mask-level iteration order mirrors label-level iteration order.
    """

    __slots__ = ("_labels", "_index")

    def __init__(self, labels: Iterable[Vertex]) -> None:
        self._labels: tuple[Vertex, ...] = tuple(labels)
        self._index: dict[Vertex, int] = {
            v: i for i, v in enumerate(self._labels)
        }
        if len(self._index) != len(self._labels):
            raise ValueError("duplicate vertex labels")

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._index

    @property
    def labels(self) -> tuple[Vertex, ...]:
        """All labels, in index order."""
        return self._labels

    def index_of(self, label: Vertex) -> int:
        """The dense index of ``label``."""
        return self._index[label]

    def label_of(self, index: int) -> Vertex:
        """The label at dense ``index``."""
        return self._labels[index]

    def mask_of(self, labels: Iterable[Vertex]) -> int:
        """The bitmask of a label set."""
        index = self._index
        mask = 0
        for v in labels:
            mask |= 1 << index[v]
        return mask

    def labels_of(self, mask: int) -> frozenset[Vertex]:
        """The label set of a bitmask."""
        return frozenset(map(self._labels.__getitem__, iter_bits(mask)))

    def sorted_labels_of(self, mask: int) -> list[Vertex]:
        """The labels of a bitmask, in index (insertion) order."""
        labels = self._labels
        return [labels[i] for i in iter_bits(mask)]


class BitGraph:
    """An undirected graph stored as one adjacency bitmask per vertex.

    Vertices are dense indices ``0..n-1`` under :attr:`indexer`;
    :attr:`full_mask` is the mask of vertices actually present (an
    induced view may cover only part of the index range).  All query
    methods are read-only except :meth:`saturate`, which is only ever
    called on copies (:meth:`copy`) or throwaway instances.
    """

    __slots__ = ("indexer", "adj", "full_mask")

    def __init__(
        self, indexer: VertexIndexer, adj: list[int], full_mask: int
    ) -> None:
        self.indexer = indexer
        self.adj = adj
        self.full_mask = full_mask

    @classmethod
    def from_graph(
        cls, graph: Graph, indexer: VertexIndexer | None = None
    ) -> "BitGraph":
        """Encode a label-level :class:`Graph` (the one-time translation).

        With an explicit ``indexer`` the graph's vertices must all be
        registered in it; vertices of the indexer missing from the graph
        simply stay outside :attr:`full_mask`.
        """
        if indexer is None:
            indexer = VertexIndexer(graph.vertices)
        index = indexer._index
        adj = [0] * len(indexer)
        full = 0
        for v in graph.vertices:
            full |= 1 << index[v]
        for u, w in graph.edges():
            i, j = index[u], index[w]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(indexer, adj, full)

    def to_graph(self) -> Graph:
        """Decode back to a label-level :class:`Graph`."""
        labels = self.indexer.labels
        g = Graph(vertices=(labels[i] for i in iter_bits(self.full_mask)))
        adj = self.adj
        for i in iter_bits(self.full_mask):
            u = labels[i]
            higher = adj[i] >> (i + 1)
            for off in iter_bits(higher):
                g.add_edge(u, labels[i + 1 + off])
        return g

    def copy(self) -> "BitGraph":
        """An independent copy sharing the (immutable) indexer."""
        return BitGraph(self.indexer, list(self.adj), self.full_mask)

    def induced(self, mask: int) -> "BitGraph":
        """The induced subgraph view on ``mask`` (same indexer)."""
        return BitGraph(
            self.indexer,
            [a & mask if mask >> i & 1 else 0 for i, a in enumerate(self.adj)],
            mask & self.full_mask,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def num_vertices(self) -> int:
        return self.full_mask.bit_count()

    def closed_neighborhood(self, i: int) -> int:
        """``N[i]`` as a mask."""
        return self.adj[i] | (1 << i)

    def neighborhood_of_set(self, mask: int) -> int:
        """``N(U)``: vertices outside ``mask`` adjacent to some member."""
        adj = self.adj
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= adj[low.bit_length() - 1]
            m ^= low
        return out & ~mask

    def is_clique(self, mask: int) -> bool:
        """Whether ``mask`` induces a complete subgraph."""
        adj = self.adj
        m = mask
        while m:
            low = m & -m
            if mask & ~(adj[low.bit_length() - 1] | low):
                return False
            m ^= low
        return True

    def missing_pair_count(self, mask: int) -> int:
        """Number of non-adjacent pairs inside ``mask`` (the bag fill)."""
        adj = self.adj
        missing = 0
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            missing += (mask & ~(adj[i] | low) & ~(low - 1)).bit_count()
            m ^= low
        return missing

    def saturate(self, mask: int) -> None:
        """Make ``mask`` a clique (mutates; use on copies only)."""
        adj = self.adj
        m = mask
        while m:
            low = m & -m
            adj[low.bit_length() - 1] |= mask & ~low
            m ^= low

    # ------------------------------------------------------------------
    # Connectivity (word-parallel BFS)
    # ------------------------------------------------------------------
    def _spread(self, seed: int, region: int) -> int:
        """The component of ``region`` (a mask) reachable from ``seed``."""
        adj = self.adj
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            m = frontier
            while m:
                low = m & -m
                grow |= adj[low.bit_length() - 1]
                m ^= low
            frontier = grow & region & ~comp
            comp |= frontier
        return comp

    def components_without(self, removed: int) -> list[int]:
        """Connected components of ``G \\ removed`` (both masks).

        Returned ascending by lowest member index — the bitset analogue
        of :meth:`Graph.components_without`'s insertion-order scan.
        """
        todo = self.full_mask & ~removed
        components = []
        while todo:
            comp = self._spread(todo & -todo, todo)
            todo &= ~comp
            components.append(comp)
        return components

    def components_with_neighborhoods(
        self, region: int
    ) -> list[tuple[int, int]]:
        """``(C, N(C))`` pairs for the components of ``G[region]``.

        The enumeration hot paths almost always need a component *and*
        its neighborhood; the spread loop already ORs every member's
        adjacency word, so the neighborhood falls out of the same pass
        for free instead of a second sweep over the component's bits.
        ``N(C)`` is taken in the whole (view) graph, exactly like
        calling :meth:`neighborhood_of_set` on the component.  Pairs come
        ascending by lowest member index, as in
        :meth:`components_without`.
        """
        adj = self.adj
        todo = region & self.full_mask
        out: list[tuple[int, int]] = []
        while todo:
            seed = todo & -todo
            comp = seed
            reach = 0
            frontier = seed
            while frontier:
                grow = 0
                m = frontier
                while m:
                    low = m & -m
                    grow |= adj[low.bit_length() - 1]
                    m ^= low
                reach |= grow
                frontier = grow & todo & ~comp
                comp |= frontier
            out.append((comp, reach & ~comp))
            todo &= ~comp
        return out

    def component_of(self, start: int, removed: int = 0) -> int:
        """The component of ``G \\ removed`` containing vertex ``start``."""
        seed = 1 << start
        if removed & seed:
            raise ValueError(f"start vertex {start} is in the removed set")
        return self._spread(seed, self.full_mask & ~removed)

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts)."""
        full = self.full_mask
        if not full:
            return True
        return self._spread(full & -full, full) == full

    def bfs_order(self, start: int | None = None) -> list[int]:
        """Vertex indices in BFS order (component by component).

        Level-parallel BFS: each level is gathered as one mask and
        emitted in ascending index order, so every prefix of the order
        induces a subgraph with at most as many components as the whole
        graph — the property the PMC enumerator needs.
        """
        adj = self.adj
        order: list[int] = []
        remaining = self.full_mask
        first = start
        while remaining:
            if first is not None:
                seed = 1 << first
                if not remaining & seed:
                    raise ValueError(f"start vertex {first} not in graph")
                first = None
            else:
                seed = remaining & -remaining
            remaining &= ~seed
            frontier = seed
            while frontier:
                m = frontier
                while m:
                    low = m & -m
                    order.append(low.bit_length() - 1)
                    m ^= low
                grow = 0
                m = frontier
                while m:
                    low = m & -m
                    grow |= adj[low.bit_length() - 1]
                    m ^= low
                frontier = grow & remaining
                remaining &= ~frontier
        return order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = sum(a.bit_count() for a in self.adj) // 2
        return f"BitGraph(|V|={self.num_vertices()}, |E|={edges})"
