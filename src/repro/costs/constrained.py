"""Constraint compilation ``κ[I,X]`` (Section 6.1 of the paper).

Lawler–Murty partitions the answer space with *inclusion* constraints ``I``
and *exclusion* constraints ``X``, both sets of minimal separators of the
input graph.  Rather than modifying the optimizer, the paper compiles the
constraints into the cost function:

    κ[I,X](G, T) = κ(G, T)   if H_T |= [I, X]
                   ∞          otherwise

where ``H_T`` is the graph obtained from ``G`` by saturating every bag of
``T``, and ``H_T |= [I, X]`` means: for every ``S ∈ I`` with
``S ⊆ V(H_T)``, ``S`` is a clique of ``H_T``; and for every ``S ∈ X`` with
``S ⊆ V(H_T)``, ``S`` is *not* a clique of ``H_T``.  The vertex-containment
guard is what makes the definition meaningful on the partial triangulations
(block realizations) the DP works with.

Lemma 6.2: if ``κ`` is a split-monotone bag cost then so is ``κ[I,X]``,
and it stays polynomial-time computable.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable

from ..graphs.graph import Graph, Vertex
from .base import Bag, BagCost, INFEASIBLE

Separator = frozenset[Vertex]

__all__ = ["ConstrainedCost", "is_clique_after_saturation", "satisfies_constraints"]


def is_clique_after_saturation(
    graph: Graph, bags: Collection[Bag], candidate: Separator
) -> bool:
    """Whether ``candidate`` is a clique of ``H_T`` (bags saturated in ``G``).

    A pair is adjacent in ``H_T`` iff it is an edge of ``G`` or co-located
    in some bag, so no graph is materialized.
    """
    members = list(candidate)
    if len(members) <= 1:
        return True
    # Fast path: a single bag containing the whole candidate.
    if any(candidate <= bag for bag in bags):
        return True
    for i, u in enumerate(members):
        adj_u = graph.adj(u)
        for v in members[i + 1 :]:
            if v in adj_u:
                continue
            if not any(u in bag and v in bag for bag in bags):
                return False
    return True


def satisfies_constraints(
    graph: Graph,
    bags: Collection[Bag],
    include: Iterable[Separator],
    exclude: Iterable[Separator],
) -> bool:
    """``H_T |= [I, X]`` per the guarded semantics above.

    ``graph`` must be the (sub)graph actually decomposed by ``bags``; its
    vertex set is ``V(H_T)``.
    """
    vertex_set = graph.vertex_set()
    for s in include:
        if s <= vertex_set and not is_clique_after_saturation(graph, bags, s):
            return False
    for s in exclude:
        if s <= vertex_set and is_clique_after_saturation(graph, bags, s):
            return False
    return True


class ConstrainedCost(BagCost):
    """``κ[I,X]``: ``base`` where the constraints hold, ``∞`` elsewhere.

    Over a base cost that declares a fold, the block DP checks these
    constraints per PMC without calling :meth:`evaluate` (see
    :mod:`repro.core.mintriang`).  Over any other base, :meth:`evaluate`
    runs on every block/PMC candidate of every Lawler–Murty child
    optimization, so it pre-sorts constraints by size and relies on the
    single-bag fast path of :func:`is_clique_after_saturation`.
    """

    def __init__(
        self,
        base: BagCost,
        include: Iterable[Separator] = (),
        exclude: Iterable[Separator] = (),
    ) -> None:
        self._base = base
        self.include: frozenset[Separator] = frozenset(frozenset(s) for s in include)
        self.exclude: frozenset[Separator] = frozenset(frozenset(s) for s in exclude)
        overlap = self.include & self.exclude
        if overlap:
            raise ValueError(f"separators both included and excluded: {overlap!r}")
        self.name = f"{base.name}[I={len(self.include)},X={len(self.exclude)}]"
        # Small constraints are cheapest to refute/verify; check them first.
        self._include_sorted = sorted(self.include, key=len)
        self._exclude_sorted = sorted(self.exclude, key=len)
        # Per-separator missing pairs (w.r.t. the base graph's adjacency;
        # identical inside any induced region containing the separator) and
        # per-region applicable-constraint lists, both filled lazily.  The
        # region cache is keyed by object identity: the block DP hands out
        # context-cached subgraphs, so identities are stable.
        self._missing: dict[Separator, tuple[tuple[object, object], ...]] = {}
        self._by_region: dict[int, tuple[list[Separator], list[Separator]]] = {}

    @property
    def base(self) -> BagCost:
        """The unconstrained cost function."""
        return self._base

    def _missing_pairs(
        self, graph: Graph, s: Separator
    ) -> tuple[tuple[object, object], ...]:
        cached = self._missing.get(s)
        if cached is None:
            cached = tuple(graph.missing_edges(s))
            self._missing[s] = cached
        return cached

    def _applicable(
        self, graph: Graph
    ) -> tuple[list[Separator], list[Separator]]:
        cached = self._by_region.get(id(graph))
        if cached is None:
            include = [
                s for s in self._include_sorted if all(v in graph for v in s)
            ]
            exclude = [
                s for s in self._exclude_sorted if all(v in graph for v in s)
            ]
            cached = (include, exclude)
            self._by_region[id(graph)] = cached
        return cached

    def evaluate(self, graph: Graph, bags: Collection[Bag]) -> float:
        include, exclude = self._applicable(graph)
        for s in include:
            if not self._covered(graph, bags, s):
                return INFEASIBLE
        for s in exclude:
            if self._covered(graph, bags, s):
                return INFEASIBLE
        return self._base.evaluate(graph, bags)

    def _covered(self, graph: Graph, bags: Collection[Bag], s: Separator) -> bool:
        """Whether ``s`` is a clique of ``H_T`` (precomputed missing pairs)."""
        missing = self._missing_pairs(graph, s)
        if not missing:
            return True
        size = len(s)
        for bag in bags:
            if len(bag) >= size and s <= bag:
                return True
        for u, v in missing:
            if not any(u in bag and v in bag for bag in bags):
                return False
        return True
