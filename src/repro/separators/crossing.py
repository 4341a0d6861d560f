"""The crossing / parallel relation between minimal separators.

Two minimal separators ``S`` and ``T`` *cross* if ``S`` separates some pair
of vertices of ``T`` (equivalently, ``T`` meets at least two components of
``G \\ S``).  Crossing is symmetric (Kloks–Kratsch–Spinrad; Parra–Scheffler),
and its complement — *parallel* — is what Parra–Scheffler use to
characterize minimal triangulations: the maximal sets of pairwise-parallel
minimal separators of ``G`` are in bijection with the minimal triangulations
of ``G`` (Theorem 2.5 of the paper).

:class:`SeparatorFamily` caches one component labelling per separator so a
crossing query costs ``O(|T|)`` dictionary lookups after the first query
involving ``S``.  The CKK and brute-force baselines issue many thousands of
these queries; the ranked enumerator uses the mask-level rows of
:meth:`~repro.core.context.SeparatorIndex.crossing` instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..graphs.graph import Graph, Vertex

Separator = frozenset[Vertex]

__all__ = ["crosses", "are_parallel", "SeparatorFamily"]


def crosses(graph: Graph, s: Separator, t: Separator) -> bool:
    """Whether minimal separators ``s`` and ``t`` cross in ``graph``."""
    if s == t:
        return False
    count = 0
    for comp in graph.components_without(s):
        if comp & t:
            count += 1
            if count >= 2:
                return True
    return False


def are_parallel(graph: Graph, s: Separator, t: Separator) -> bool:
    """Whether ``s`` and ``t`` are parallel (non-crossing)."""
    return not crosses(graph, s, t)


class SeparatorFamily:
    """A set of minimal separators of one graph with cached crossing queries.

    Parameters
    ----------
    graph:
        The underlying graph.
    separators:
        The separators of interest (typically ``MinSep(G)``).

    Notes
    -----
    The cache stores, per separator ``S``, a map ``vertex -> component id``
    of ``G \\ S``.  ``crosses(S, T)`` then counts the distinct component ids
    met by ``T \\ S``; two or more means crossing.
    """

    def __init__(self, graph: Graph, separators: Iterable[Separator] = ()) -> None:
        self._graph = graph
        self._separators: list[Separator] = []
        self._index: dict[Separator, int] = {}
        self._component_maps: dict[Separator, dict[Vertex, int]] = {}
        self._pair_cache: dict[tuple[int, int], bool] = {}
        for s in separators:
            self.add(s)

    @property
    def graph(self) -> Graph:
        return self._graph

    def __len__(self) -> int:
        return len(self._separators)

    def __iter__(self) -> Iterator[Separator]:
        return iter(self._separators)

    def __contains__(self, s: Separator) -> bool:
        return s in self._index

    def add(self, s: Separator) -> int:
        """Register ``s`` and return its integer id (idempotent)."""
        sep = frozenset(s)
        existing = self._index.get(sep)
        if existing is not None:
            return existing
        idx = len(self._separators)
        self._index[sep] = idx
        self._separators.append(sep)
        return idx

    def id_of(self, s: Separator) -> int:
        """The integer id of a registered separator."""
        return self._index[frozenset(s)]

    def separator(self, idx: int) -> Separator:
        """The separator with integer id ``idx``."""
        return self._separators[idx]

    def _component_map(self, s: Separator) -> dict[Vertex, int]:
        cached = self._component_maps.get(s)
        if cached is None:
            cached = {}
            for i, comp in enumerate(self._graph.components_without(s)):
                for v in comp:
                    cached[v] = i
            self._component_maps[s] = cached
        return cached

    def crosses(self, s: Separator, t: Separator) -> bool:
        """Whether ``s`` and ``t`` cross (cached, symmetric)."""
        if s == t:
            return False
        i, j = self.add(s), self.add(t)
        key = (i, j) if i < j else (j, i)
        cached = self._pair_cache.get(key)
        if cached is None:
            comp_map = self._component_map(self._separators[key[0]])
            other = self._separators[key[1]]
            seen_comp: set[int] = set()
            cached = False
            for v in other:
                cid = comp_map.get(v)
                if cid is not None:
                    seen_comp.add(cid)
                    if len(seen_comp) >= 2:
                        cached = True
                        break
            self._pair_cache[key] = cached
        return cached

    def parallel(self, s: Separator, t: Separator) -> bool:
        """Whether ``s`` and ``t`` are parallel."""
        return not self.crosses(s, t)

    def parallel_to_all(self, s: Separator, others: Iterable[Separator]) -> bool:
        """Whether ``s`` is parallel to every separator in ``others``."""
        return all(not self.crosses(s, t) for t in others)

    def is_pairwise_parallel(self, seps: Iterable[Separator]) -> bool:
        """Whether ``seps`` is a set of pairwise-parallel separators."""
        seps = list(seps)
        for i, s in enumerate(seps):
            for t in seps[i + 1 :]:
                if self.crosses(s, t):
                    return False
        return True

    def extend_to_maximal(
        self, base: Iterable[Separator], order: Iterable[Separator] | None = None
    ) -> set[Separator]:
        """Greedily extend a pairwise-parallel set to a maximal one.

        Separators are attempted in ``order`` (default: registration order);
        each is added when parallel to everything accumulated so far.  The
        result saturates to a minimal triangulation (Parra–Scheffler).
        """
        chosen = list(base)
        candidates = list(order) if order is not None else list(self._separators)
        for t in candidates:
            if all(not self.crosses(t, s) for s in chosen):
                if t not in chosen:
                    chosen.append(t)
        return set(chosen)
