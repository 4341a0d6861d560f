"""Diverse top-k selection over the ranked stream (paper §8 future work).

The conclusion of the paper asks: *"can we strengthen our algorithms with
further diversity of results to maximize the potential value to the
application? How should diversification be defined?"*

This module defines the distance metric: the **distance** between two
minimal triangulations is the symmetric difference of their fill sets
(equivalently, of their edge sets — a metric on triangulations of a
fixed graph).

Diverse top-k, :meth:`repro.api.Session.diverse`, scans a bounded prefix
of the cost-ranked stream and greedily keeps a result iff its distance
to every kept result is at least ``min_distance``.  It runs in
polynomial time on top of the polynomial-delay stream, so it keeps an
end-to-end efficiency guarantee for fixed ``k`` and prefix size.
"""

from __future__ import annotations

from ..graphs.graph import Vertex
from .mintriang import Triangulation

__all__ = ["triangulation_distance"]


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
