"""Diverse top-k selection over the ranked stream (paper §8 future work).

The conclusion of the paper asks: *"can we strengthen our algorithms with
further diversity of results to maximize the potential value to the
application? How should diversification be defined?"*

This module defines the distance metric and the dispersion helpers:

* **distance** between two minimal triangulations = the symmetric
  difference of their fill sets (equivalently, of their edge sets — a
  metric on triangulations of a fixed graph);
* **diverse top-k**: scan a bounded prefix of the cost-ranked stream and
  greedily keep a result iff its distance to every kept result is at least
  ``min_distance`` (a "cost-first maximal dispersion" heuristic: the
  cheapest representative of each neighborhood survives);
* **max-min dispersion** variant: from a candidate prefix, greedily pick
  ``k`` results maximizing the minimum pairwise distance, seeded with the
  optimum (the classic 2-approximation of max-min dispersion, applied to
  the cost-ordered candidate pool).

Both run in polynomial time on top of the polynomial-delay stream, so the
combined procedure keeps an end-to-end efficiency guarantee for fixed
``k`` and prefix size.

The greedy scan itself is served by :meth:`repro.api.Session.diverse`;
:func:`diverse_top_k` remains as a **deprecated** thin wrapper over the
process-wide default session.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable

from ..graphs.graph import Graph, Vertex
from ..costs.base import BagCost
from .context import TriangulationContext
from .mintriang import Triangulation

__all__ = [
    "triangulation_distance",
    "diverse_top_k",
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


def diverse_top_k(
    graph: Graph,
    cost: BagCost,
    k: int,
    min_distance: int = 1,
    scan_limit: int | None = None,
    context: TriangulationContext | None = None,
    width_bound: int | None = None,
) -> list[Triangulation]:
    """Up to ``k`` low-cost, pairwise-``min_distance``-separated results.

    .. deprecated::
        Use :meth:`repro.api.Session.diverse`; this wrapper routes
        through the default session.

    Scans the cost-ranked stream (at most ``scan_limit`` results, default
    ``25 * k``) and keeps a result iff it is at distance ≥ ``min_distance``
    from everything kept so far.  With ``min_distance = 1`` this is plain
    top-k (all enumerated triangulations are distinct).  ``width_bound``
    restricts the scanned stream to triangulations of width ≤ bound,
    exactly as in :func:`~repro.core.ranked.ranked_triangulations`.
    """
    warnings.warn(
        "diverse_top_k is deprecated; use repro.api.Session.diverse",
        DeprecationWarning,
        stacklevel=2,
    )
    if k <= 0:
        return []
    from ..api import default_session

    response = default_session().diverse(
        graph,
        cost,
        k=k,
        min_distance=min_distance,
        scan_limit=scan_limit,
        width_bound=width_bound,
        context=context,
    )
    return list(response.results)


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
