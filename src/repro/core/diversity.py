"""Diverse top-k selection over the ranked stream (paper §8 future work).

The conclusion of the paper asks: *"can we strengthen our algorithms with
further diversity of results to maximize the potential value to the
application? How should diversification be defined?"*

This module defines the distance metric and the dispersion helper:

* **distance** between two minimal triangulations = the symmetric
  difference of their fill sets (equivalently, of their edge sets — a
  metric on triangulations of a fixed graph);
* **max-min dispersion**: from a candidate prefix, greedily pick ``k``
  results maximizing the minimum pairwise distance, seeded with the
  optimum (the classic 2-approximation of max-min dispersion, applied to
  the cost-ordered candidate pool).

Diverse top-k, :meth:`repro.api.Session.diverse`, scans a bounded prefix
of the cost-ranked stream and greedily keeps a result iff its distance
to every kept result is at least ``min_distance``.  Both run in
polynomial time on top of the polynomial-delay stream, so either keeps
an end-to-end efficiency guarantee for fixed ``k`` and prefix size.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..graphs.graph import Vertex
from .mintriang import Triangulation

__all__ = [
    "triangulation_distance",
    "max_min_dispersion_k",
]


def _fill_set(tri: Triangulation) -> frozenset[frozenset[Vertex]]:
    graph = tri.graph
    return frozenset(
        frozenset(e)
        for e in tri.chordal_graph.edges()
        if not graph.has_edge(*e)
    )


def triangulation_distance(a: Triangulation, b: Triangulation) -> int:
    """Symmetric difference of fill sets — a metric for a fixed graph."""
    return len(_fill_set(a) ^ _fill_set(b))


def max_min_dispersion_k(
    candidates: Iterable[Triangulation],
    k: int,
) -> list[Triangulation]:
    """Greedy max-min dispersion over a candidate pool.

    Seeds with the first candidate (for a cost-ranked pool: the optimum),
    then repeatedly adds the candidate maximizing its minimum distance to
    the selected set — the classical greedy 2-approximation of max-min
    dispersion.
    """
    pool = list(candidates)
    if k <= 0 or not pool:
        return []
    fills = [_fill_set(t) for t in pool]
    selected = [0]
    while len(selected) < min(k, len(pool)):
        best_idx = None
        best_score = -1
        for i in range(len(pool)):
            if i in selected:
                continue
            score = min(len(fills[i] ^ fills[j]) for j in selected)
            if score > best_score:
                best_score = score
                best_idx = i
        assert best_idx is not None
        selected.append(best_idx)
    return [pool[i] for i in selected]
