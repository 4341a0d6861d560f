"""Blocks ``(S, C)`` and their realizations (Section 5.1 of the paper).

A *block* of ``G`` is a pair ``(S, C)`` where ``S`` is a minimal separator
and ``C`` is one connected component of ``G \\ S``.  The block is *full*
when every vertex of ``S`` has a neighbor in ``C``.  The *realization*
``R(S, C)`` is the induced graph ``G[S ∪ C]`` with ``S`` saturated into a
clique; the Bouchitté–Todinca dynamic programming recurses on realizations
of full blocks ordered by ``|S ∪ C|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from ..graphs.graph import Graph, Vertex

Separator = frozenset[Vertex]

__all__ = [
    "Block",
    "blocks_of_separator",
    "full_blocks_of_separator",
    "all_full_blocks",
]


@dataclass(frozen=True, eq=False)
class Block:
    """A block ``(S, C)`` of a graph.

    Identified (hashable, comparable) by the pair of frozensets; the paper
    often identifies the block with the vertex set ``S ∪ C``, available as
    :attr:`vertices`.  Blocks are dictionary keys on the hottest paths of
    the DP, so the hash is computed once and equality short-circuits on
    identity and hash.
    """

    separator: Separator
    component: frozenset[Vertex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.separator, self.component)))
        object.__setattr__(self, "_vertices", self.separator | self.component)

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # Rebuild through __init__ on unpickling: the cached hash is
        # PYTHONHASHSEED-dependent (frozensets of labels), so a value
        # pickled in one process is wrong in every other — it must be
        # recomputed under the reading interpreter's seed, or the block
        # silently misses as a dict key (persistent artifact cache,
        # cross-process checkpoints).
        return (Block, (self.separator, self.component))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Block):
            return NotImplemented
        return (
            self._hash == other._hash  # type: ignore[attr-defined]
            and self.component == other.component
            and self.separator == other.separator
        )

    @property
    def vertices(self) -> frozenset[Vertex]:
        """The vertex set ``S ∪ C`` of the block."""
        return self._vertices  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.separator) + len(self.component)

    def realization(self, graph: Graph) -> Graph:
        """The realization ``R(S, C) = G[S ∪ C] ∪ K_S``."""
        realized = graph.subgraph(self.vertices)
        realized.saturate(self.separator)
        return realized

    def is_full(self, graph: Graph) -> bool:
        """Whether every vertex of ``S`` has a neighbor in ``C``."""
        return graph.neighborhood_of_set(self.component) == self.separator

    def __repr__(self) -> str:
        sep = "{" + ",".join(sorted(map(str, self.separator))) + "}"
        comp = "{" + ",".join(sorted(map(str, self.component))) + "}"
        return f"Block(S={sep}, C={comp})"


def blocks_of_separator(graph: Graph, separator: Separator) -> Iterator[Block]:
    """All blocks ``(S, C)`` for the given separator ``S``."""
    for comp in graph.components_without(separator):
        yield Block(separator, frozenset(comp))


def full_blocks_of_separator(graph: Graph, separator: Separator) -> Iterator[Block]:
    """The full blocks of ``S`` (a minimal separator always has ≥ 2)."""
    for comp in graph.components_without(separator):
        if graph.neighborhood_of_set(comp) == separator:
            yield Block(separator, frozenset(comp))


def all_full_blocks(graph: Graph, separators: Iterable[Separator]) -> list[Block]:
    """Every full block over the given separators, sorted by ``|S ∪ C|``.

    This is the processing order of the main loop of ``MinTriang``
    (Figure 3, line 3): ascending block cardinality so each block can reuse
    the optimal triangulations of its strictly smaller sub-blocks.
    """
    out: list[Block] = []
    for s in separators:
        out.extend(full_blocks_of_separator(graph, s))
    out.sort(key=len)
    return out
