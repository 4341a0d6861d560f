"""The classic split-monotone bag costs: width, fill-in, and combinations.

These are the costs named explicitly in Section 3 of the paper:

* ``width(G, T)`` — largest bag cardinality minus one;
* ``fill-in(G, T)`` — number of edges added when saturating every bag;
* the lexicographic combination ``|E(G)| · width + fill-in``;
* the "sum of exponents of bag cardinalities" cost ``Σ_b 2^|b|``.

Each declares a fold next to its ``evaluate`` (the contract is in
:mod:`repro.costs.base`), so the block DP values candidates without
assembling bag lists.  All but the lexicographic combination also
declare the fold monotone, which lets a Lawler–Murty child's DP stop
its scans early.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

from ..graphs.graph import Graph, Vertex
from .base import Bag, BagCost, Fold

__all__ = [
    "WidthCost",
    "FillInCost",
    "LexWidthFillCost",
    "SumExpBagCost",
    "count_fill_edges",
]


def count_fill_edges(graph: Graph, bags: Collection[Bag]) -> int:
    """Number of distinct non-edges of ``graph`` covered by some bag.

    This equals ``|E(H_T)| − |E(G[∪bags])|`` where ``H_T`` saturates every
    bag — i.e. the fill-in of the decomposition.  A pair appearing in
    several bags is counted once.
    """
    filled: set[frozenset[Vertex]] = set()
    for bag in bags:
        members = list(bag)
        for i, u in enumerate(members):
            adj_u = graph.adj(u)
            for v in members[i + 1 :]:
                if v not in adj_u:
                    filled.add(frozenset((u, v)))
    return len(filled)


class WidthCost(BagCost):
    """``width(G, T)``: maximal bag cardinality minus one."""

    name = "width"

    def evaluate(self, graph: Graph, bags: Collection[Bag]) -> float:
        if not bags:
            return -1.0
        return float(max(len(b) for b in bags) - 1)

    def fold(self, graph: Graph) -> Fold:
        """``max(|Ω| − 1, children)``."""
        return _width_fold

    #: ``max`` never falls when a child's width rises.
    monotone_fold = True


def _width_fold(
    size: int, _fill: int, states: Sequence[float]
) -> tuple[float, float]:
    value = size - 1.0
    for state in states:
        if state > value:
            value = state
    return value, value


class FillInCost(BagCost):
    """``fill-in(G, T)``: number of edges required to saturate all bags."""

    name = "fill"

    def evaluate(self, graph: Graph, bags: Collection[Bag]) -> float:
        return float(count_fill_edges(graph, bags))

    def fold(self, graph: Graph) -> Fold:
        """The fill term of ``Ω`` plus the children's fill.

        A child's bags cover every non-edge of its separator ``S_i``,
        and every non-edge two children share lies in ``Ω``, so the
        fill term ``nonedges(Ω) − Σ nonedges(S_i)`` counts each
        distinct non-edge once.
        """
        return _fill_fold

    #: A sum never falls when a child's fill rises.
    monotone_fold = True


def _fill_fold(
    _size: int, fill: int, states: Sequence[int]
) -> tuple[float, int]:
    for state in states:
        fill += state
    return float(fill), fill


class LexWidthFillCost(BagCost):
    """``|E(G)| · width + fill-in``: width first, fill-in as tiebreak.

    This is the paper's example of a composite split-monotone cost
    (Section 3).  The multiplier is taken from the *top-level* graph and
    must dominate any possible fill-in for the ordering to be truly
    lexicographic; the paper uses ``|E(G)|``, which suffices on its
    datasets, and we keep that default while allowing an explicit scale.
    """

    name = "lex-width-fill"

    def __init__(self, graph: Graph, scale: float | None = None) -> None:
        n = graph.num_vertices()
        self._scale = float(scale) if scale is not None else float(graph.num_edges())
        # A safe fallback when the graph is tiny/edgeless.
        if self._scale <= 0:
            self._scale = float(n * n + 1)

    def evaluate(self, graph: Graph, bags: Collection[Bag]) -> float:
        width = max((len(b) for b in bags), default=0) - 1
        return self._scale * width + count_fill_edges(graph, bags)

    def fold(self, graph: Graph) -> Fold:
        """The pair (width, fill), valued ``scale · width + fill``.

        Not monotone: a child of higher value can lower the parent's
        (see :mod:`repro.costs.base`), so it declares no floors.
        """
        scale = self._scale

        def lex_fold(
            size: int, fill: int, states: Sequence[tuple[int, int]]
        ) -> tuple[float, tuple[int, int]]:
            width = size - 1
            for child_width, child_fill in states:
                if child_width > width:
                    width = child_width
                fill += child_fill
            return scale * width + fill, (width, fill)

        return lex_fold


class SumExpBagCost(BagCost):
    """``Σ_b base^|b|``: total state-space size over the bags.

    Models the cost of dynamic programming over the decomposition with
    ``base`` states per vertex (e.g. junction-tree inference over binary
    variables with ``base = 2``).  Split monotone because it is a sum of a
    per-bag measure over the bag set.
    """

    name = "sum-exp-bags"

    def __init__(self, base: float = 2.0) -> None:
        if base <= 1.0:
            raise ValueError("base must exceed 1")
        self._base = float(base)

    def evaluate(self, graph: Graph, bags: Collection[Bag]) -> float:
        return float(sum(self._base ** len(b) for b in bags))

    def fold(self, graph: Graph) -> Fold | None:
        """``base^|Ω|`` plus the children's sums, where that is exact.

        ``evaluate`` adds floats in bag order; a fold adds them in
        another order, which gives the same float only when every
        partial sum is an exact integer.  That holds when the base is an
        integer and ``n · base^n`` (at most ``n`` bags of at most ``n``
        vertices) stays below ``2^53``; otherwise ``None``.
        """
        n = graph.num_vertices()
        base = self._base
        if not base.is_integer() or n * int(base) ** n >= 2**53:
            return None
        terms = [base**k for k in range(n + 1)]

        def sum_exp_fold(
            size: int, _fill: int, states: Sequence[float]
        ) -> tuple[float, float]:
            value = terms[size]
            for state in states:
                value += state
            return value, value

        return sum_exp_fold

    #: A sum never falls when a child's sum rises.
    monotone_fold = True
