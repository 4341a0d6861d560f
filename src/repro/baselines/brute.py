"""Exhaustive enumeration oracles for small graphs.

Two independent routes to "all minimal triangulations", used to validate
the ranked enumerator and the CKK baseline:

* :func:`minimal_triangulations_bruteforce` — try every subset of
  non-edges as a fill set, keep the chordal supergraphs whose fill set is
  inclusion-minimal.  Exponential in the number of non-edges; the ground
  truth of last resort.
* :func:`minimal_triangulations_via_mis` — Parra–Scheffler: maximal
  independent sets of the separator crossing graph, found with
  Bron–Kerbosch (networkx) on the complement.  Polynomial in the output
  but needs all minimal separators.
"""

from __future__ import annotations

from itertools import combinations

from ..graphs.graph import Graph, Vertex
from ..graphs.chordal import is_chordal
from ..graphs.ordering import vertex_set_sort_key
from ..separators.berry import minimal_separators
from ..separators.crossing import SeparatorFamily
from ..triangulation.saturate import saturate_separators

__all__ = ["minimal_triangulations_bruteforce", "minimal_triangulations_via_mis"]


def _fill_key(graph: Graph, candidate: Graph) -> frozenset[frozenset[Vertex]]:
    return frozenset(
        frozenset((u, v)) for u, v in candidate.edges() if not graph.has_edge(u, v)
    )


def minimal_triangulations_bruteforce(graph: Graph, max_missing: int = 22) -> list[Graph]:
    """All minimal triangulations by exhaustive fill-set search.

    Raises
    ------
    ValueError
        If the graph has more than ``max_missing`` non-edges (the search
        is exponential in that number).
    """
    vertices = list(graph.vertices)
    missing = [
        (u, v)
        for i, u in enumerate(vertices)
        for v in vertices[i + 1 :]
        if not graph.has_edge(u, v)
    ]
    if len(missing) > max_missing:
        raise ValueError(
            f"{len(missing)} non-edges exceed the brute-force limit {max_missing}"
        )
    chordal_fills: list[frozenset[frozenset[Vertex]]] = []
    for r in range(len(missing) + 1):
        for fill in combinations(missing, r):
            candidate = graph.copy()
            candidate.add_edges(fill)
            if is_chordal(candidate):
                chordal_fills.append(
                    frozenset(frozenset(e) for e in fill)
                )
    minimal = [
        f
        for f in chordal_fills
        if not any(other < f for other in chordal_fills)
    ]
    out: list[Graph] = []
    for f in minimal:
        candidate = graph.copy()
        candidate.add_edges(tuple(e) for e in f)
        out.append(candidate)
    return out


def minimal_triangulations_via_mis(graph: Graph) -> list[Graph]:
    """All minimal triangulations via maximal independent sets of the
    crossing graph (independent implementation path using networkx)."""
    import networkx as nx

    separators = sorted(minimal_separators(graph), key=vertex_set_sort_key)
    if not separators:
        return [graph.copy()]  # already chordal (or too small to separate)
    family = SeparatorFamily(graph, separators)
    complement = nx.Graph()
    complement.add_nodes_from(range(len(separators)))
    for i in range(len(separators)):
        for j in range(i + 1, len(separators)):
            if not family.crosses(separators[i], separators[j]):
                complement.add_edge(i, j)
    # Maximal cliques of the parallel graph = maximal independent sets of
    # the crossing graph = minimal triangulations (Parra–Scheffler).
    out: list[Graph] = []
    for clique in nx.find_cliques(complement):
        out.append(saturate_separators(graph, (separators[i] for i in clique)))
    return out
