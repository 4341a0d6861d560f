"""Hypergraph-based bag costs: (generalized) hypertree width and
fractional hypertree width.

When ``G`` is the primal (Gaifman) graph of a hypergraph — e.g. of a join
query, where hyperedges are relation schemas — the natural bag weight is a
*cover number* (Section 3 of the paper):

* integral: the minimum number of hyperedges covering the bag
  (→ generalized hypertree width as the max over bags);
* fractional: the minimum total weight of a fractional hyperedge cover
  (→ fractional hypertree width, Grohe–Marx).

Both are monotone under bag inclusion, hence yield split-monotone
``width_c`` costs via :class:`~repro.costs.weighted.WeightedWidthCost`.

The integral cover is solved exactly by branch and bound (bags in this
setting are small); the fractional cover by an LP via
:func:`scipy.optimize.linprog`.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from ..graphs.graph import Graph, Vertex
from .base import Bag
from .weighted import WeightedWidthCost

Hyperedge = frozenset[Vertex]

__all__ = [
    "Hypergraph",
    "HypertreeWidthCost",
    "FractionalHypertreeWidthCost",
    "minimum_edge_cover_size",
    "fractional_cover_weight",
]


class Hypergraph:
    """A hypergraph with its primal graph.

    Parameters
    ----------
    hyperedges:
        The hyperedges (iterables of vertices).  Vertices are the union.
    """

    def __init__(self, hyperedges: Iterable[Iterable[Vertex]]) -> None:
        self.hyperedges: list[Hyperedge] = [frozenset(e) for e in hyperedges]
        if not all(self.hyperedges):
            raise ValueError("empty hyperedges are not allowed")
        self.vertices: frozenset[Vertex] = frozenset().union(*self.hyperedges) if self.hyperedges else frozenset()

    def primal_graph(self) -> Graph:
        """The Gaifman graph: vertices adjacent iff they share a hyperedge."""
        g = Graph(vertices=self.vertices)
        for e in self.hyperedges:
            g.saturate(e)
        return g

    def covering_edges(self, vertex: Vertex) -> list[Hyperedge]:
        """Hyperedges containing ``vertex``."""
        return [e for e in self.hyperedges if vertex in e]


def minimum_edge_cover_size(hypergraph: Hypergraph, bag: Bag) -> int:
    """The minimum number of hyperedges whose union covers ``bag``.

    Exact branch and bound: pick an uncovered vertex, branch over the
    hyperedges containing it.  Exponential in the worst case but bags in
    decomposition workloads are small.

    Raises
    ------
    ValueError
        If some bag vertex appears in no hyperedge.
    """
    relevant = [e & bag for e in hypergraph.hyperedges if e & bag]
    # Deduplicate and drop dominated (subset) edges.
    relevant = _drop_dominated(relevant)
    uncovered_all = frozenset(bag)
    for v in uncovered_all:
        if not any(v in e for e in relevant):
            raise ValueError(f"bag vertex {v!r} not covered by any hyperedge")

    best = len(relevant) + 1

    def branch(uncovered: frozenset[Vertex], used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if not uncovered:
            best = used
            return
        # Greedy lower bound: each edge covers at most max_cover vertices.
        max_cover = max(len(e & uncovered) for e in relevant)
        if used + (len(uncovered) + max_cover - 1) // max_cover >= best:
            return
        v = next(iter(uncovered))
        for e in relevant:
            if v in e:
                branch(uncovered - e, used + 1)

    branch(uncovered_all, 0)
    return best


def _drop_dominated(edges: list[frozenset[Vertex]]) -> list[frozenset[Vertex]]:
    unique = sorted(set(edges), key=len, reverse=True)
    kept: list[frozenset[Vertex]] = []
    for e in unique:
        if not any(e <= other for other in kept):
            kept.append(e)
    return kept


def fractional_cover_weight(hypergraph: Hypergraph, bag: Bag) -> float:
    """The minimum weight of a fractional hyperedge cover of ``bag``.

    Solves ``min Σ x_e  s.t.  Σ_{e ∋ v} x_e ≥ 1 (v ∈ bag), x ≥ 0`` with
    :func:`scipy.optimize.linprog` (HiGHS).
    """
    from scipy.optimize import linprog

    relevant = _drop_dominated([e & bag for e in hypergraph.hyperedges if e & bag])
    members = sorted(bag, key=repr)
    for v in members:
        if not any(v in e for e in relevant):
            raise ValueError(f"bag vertex {v!r} not covered by any hyperedge")
    # One variable per relevant hyperedge; one >= constraint per vertex.
    n_e = len(relevant)
    c = [1.0] * n_e
    a_ub = []
    b_ub = []
    for v in members:
        a_ub.append([-1.0 if v in e else 0.0 for e in relevant])
        b_ub.append(-1.0)
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * n_e, method="highs")
    if not result.success:  # pragma: no cover - LP is always feasible here
        raise RuntimeError(f"fractional cover LP failed: {result.message}")
    return float(result.fun)


class HypertreeWidthCost(WeightedWidthCost):
    """Generalized hypertree width as a bag cost: max cover number.

    Values are cached per bag — the DP re-evaluates shared sub-blocks.
    """

    name = "hypertree-width"

    def __init__(self, hypergraph: Hypergraph) -> None:
        super().__init__(
            lru_cache(maxsize=None)(
                lambda bag: minimum_edge_cover_size(hypergraph, bag)
            )
        )


class FractionalHypertreeWidthCost(WeightedWidthCost):
    """Fractional hypertree width as a bag cost: max fractional cover."""

    name = "fractional-hypertree-width"

    def __init__(self, hypergraph: Hypergraph) -> None:
        super().__init__(
            lru_cache(maxsize=None)(
                lambda bag: fractional_cover_weight(hypergraph, bag)
            )
        )
