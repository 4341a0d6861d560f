"""Ranked enumeration of proper tree decompositions (Proposition 6.1).

The proper tree decompositions of ``G`` are the clique trees of its minimal
triangulations (Theorem 2.2), distinct triangulations having disjoint
clique-tree sets.  Since a bag cost gives every clique tree of one
triangulation the same value, enumerating triangulations by increasing
cost and expanding each into its clique trees enumerates the proper tree
decompositions by increasing cost, preserving polynomial delay.

The expansion lives in :meth:`repro.api.Session.decomposition_stream`
(and :meth:`~repro.api.Session.decompositions`); this module keeps the
result type it emits, :class:`RankedDecomposition`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import TreeDecomposition
from .mintriang import Triangulation

__all__ = ["RankedDecomposition"]


@dataclass(frozen=True)
class RankedDecomposition:
    """A proper tree decomposition with its cost and provenance."""

    decomposition: TreeDecomposition
    cost: float
    triangulation: Triangulation
    rank: int
