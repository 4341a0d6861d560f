"""Ranked enumeration of proper tree decompositions (Proposition 6.1).

The proper tree decompositions of ``G`` are the clique trees of its minimal
triangulations (Theorem 2.2), distinct triangulations having disjoint
clique-tree sets.  Since a bag cost gives every clique tree of one
triangulation the same value, enumerating triangulations by increasing
cost and expanding each into its clique trees enumerates the proper tree
decompositions by increasing cost, preserving polynomial delay.

The expansion now lives in
:meth:`repro.api.Session.decomposition_stream`; the free functions below
are **deprecated** thin wrappers over the process-wide default session:

==========================================  =================================================
legacy call                                 session equivalent
==========================================  =================================================
``ranked_tree_decompositions(g, κ)``        ``session.decomposition_stream(g, κ)``
``top_k_tree_decompositions(g, κ, k)``      ``session.decompositions(g, κ, k=k)``
==========================================  =================================================
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass

from ..graphs.graph import Graph
from ..costs.base import BagCost
from .context import TriangulationContext
from .decomposition import TreeDecomposition
from .mintriang import Triangulation

__all__ = [
    "RankedDecomposition",
    "ranked_tree_decompositions",
    "top_k_tree_decompositions",
]


@dataclass(frozen=True)
class RankedDecomposition:
    """A proper tree decomposition with its cost and provenance."""

    decomposition: TreeDecomposition
    cost: float
    triangulation: Triangulation
    rank: int


def _deprecated(name: str, replacement: str) -> None:
    warnings.warn(
        f"{name} is deprecated; use repro.api.Session.{replacement}",
        DeprecationWarning,
        stacklevel=3,
    )


def ranked_tree_decompositions(
    graph: Graph,
    cost: BagCost,
    context: TriangulationContext | None = None,
    width_bound: int | None = None,
    per_triangulation: int | None = None,
) -> Iterator[RankedDecomposition]:
    """Enumerate proper tree decompositions of ``graph`` by increasing cost.

    .. deprecated::
        Use :meth:`repro.api.Session.decomposition_stream`; this wrapper
        routes through the default session.

    Parameters
    ----------
    graph, cost, context, width_bound:
        As in :func:`~repro.core.ranked.ranked_triangulations`.
    per_triangulation:
        Optional cap on the number of clique trees expanded per
        triangulation (a single triangulation can have exponentially many
        clique trees; applications often want bag-distinct results only,
        i.e. ``per_triangulation=1``).
    """
    _deprecated("ranked_tree_decompositions", "decomposition_stream")

    def _generate() -> Iterator[RankedDecomposition]:
        from ..api import default_session

        yield from default_session().decomposition_stream(
            graph,
            cost,
            per_triangulation=per_triangulation,
            width_bound=width_bound,
            context=context,
        )

    return _generate()


def top_k_tree_decompositions(
    graph: Graph,
    cost: BagCost,
    k: int,
    context: TriangulationContext | None = None,
    width_bound: int | None = None,
    per_triangulation: int | None = None,
) -> list[RankedDecomposition]:
    """The ``k`` cheapest proper tree decompositions (fewer if exhausted).

    .. deprecated::
        Use :meth:`repro.api.Session.decompositions`; this wrapper routes
        through the default session.
    """
    _deprecated("top_k_tree_decompositions", "decompositions")
    from ..api import default_session

    response = default_session().decompositions(
        graph,
        cost,
        k=k,
        per_triangulation=per_triangulation,
        width_bound=width_bound,
        context=context,
    )
    return list(response.results)
