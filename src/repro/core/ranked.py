"""``RankedTriang⟨κ⟩(G)``: ranked enumeration of minimal triangulations
(Figure 4 of the paper).

The enumeration loop itself — Lawler–Murty partitioning over the space of
minimal triangulations, priority-queue frontier, child expansion — lives
in :class:`repro.api.stream.RankedStream`, where it is resumable from a
checkpoint.  This module keeps the result type
(:class:`RankedResult`) and the original free-function entry points,
which are now **deprecated** thin wrappers over the process-wide default
:class:`repro.api.Session`:

====================================  =====================================
legacy call                           session equivalent
====================================  =====================================
``ranked_triangulations(g, κ)``       ``session.stream(g, κ)``
``top_k_triangulations(g, κ, k)``     ``session.top(g, κ, k=k)``
====================================  =====================================

Going through the session means repeated calls on the same graph reuse
the cached initialization (separators, PMCs, blocks — Section 7.1)
instead of rebuilding it, and string cost specs additionally reuse the
unconstrained DP table.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass

from ..graphs.graph import Graph, Vertex
from ..costs.base import BagCost
from .context import TriangulationContext
from .mintriang import Triangulation

Separator = frozenset[Vertex]

__all__ = ["RankedResult", "ranked_triangulations", "top_k_triangulations"]


@dataclass(frozen=True)
class RankedResult:
    """One enumerated triangulation plus enumeration metadata.

    Attributes
    ----------
    triangulation:
        The emitted minimal triangulation.
    rank:
        0-based position in the output sequence.
    elapsed_seconds:
        Wall-clock time from the start (or resumption) of the stream to
        the emission of this result — the quantity behind the ``delay``
        columns of Table 2.
    include, exclude:
        The constraint pair of the partition this result represented.
    """

    triangulation: Triangulation
    rank: int
    elapsed_seconds: float
    include: frozenset[Separator]
    exclude: frozenset[Separator]

    @property
    def cost(self) -> float:
        return self.triangulation.cost


def _deprecated(name: str, replacement: str) -> None:
    warnings.warn(
        f"{name} is deprecated; use repro.api.Session.{replacement} "
        "(the session reuses the per-graph initialization across calls)",
        DeprecationWarning,
        stacklevel=3,
    )


def ranked_triangulations(
    graph: Graph,
    cost: BagCost,
    context: TriangulationContext | None = None,
    width_bound: int | None = None,
) -> Iterator[RankedResult]:
    """Enumerate the minimal triangulations of ``graph`` by increasing ``κ``.

    .. deprecated::
        Use :meth:`repro.api.Session.stream`; this wrapper routes through
        the default session.

    Parameters
    ----------
    graph:
        A connected graph.  (Ranked enumeration over a disconnected graph
        would be a ranked cross-product over components; decompose first.)
    cost:
        A polynomial-time-computable split-monotone bag cost (or a
        registry name).
    context:
        Optional prebuilt shared initialization.
    width_bound:
        If given, enumerate only triangulations of width ≤ bound — the
        ``MinTriangB``-backed variant of Theorem 4.5, which does not need
        the poly-MS assumption.

    Yields
    ------
    :class:`RankedResult` in non-decreasing cost order; the sequence is
    complete and duplicate-free.
    """
    _deprecated("ranked_triangulations", "stream")

    def _generate() -> Iterator[RankedResult]:
        from ..api import default_session

        stream = default_session().stream(
            graph,
            cost,
            width_bound=width_bound,
            context=context,
        )
        try:
            yield from stream
        finally:
            stream.close()

    return _generate()


def top_k_triangulations(
    graph: Graph,
    cost: BagCost,
    k: int,
    context: TriangulationContext | None = None,
    width_bound: int | None = None,
) -> list[Triangulation]:
    """The ``k`` cheapest minimal triangulations (fewer if exhausted).

    .. deprecated::
        Use :meth:`repro.api.Session.top`; this wrapper routes through
        the default session.
    """
    _deprecated("top_k_triangulations", "top")
    from ..api import default_session

    response = default_session().top(
        graph,
        cost,
        k=k,
        width_bound=width_bound,
        context=context,
    )
    return [r.triangulation for r in response.results]
