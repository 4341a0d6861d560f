"""``RankedTriang⟨κ⟩(G)``: ranked enumeration of minimal triangulations
(Figure 4 of the paper).

The enumeration loop itself — Lawler–Murty partitioning over the space of
minimal triangulations, priority-queue frontier, child expansion — lives
in :class:`repro.api.stream.RankedStream`, where it is resumable from a
checkpoint, and :meth:`repro.api.Session.stream` opens it over a cached
initialization (separators, PMCs, blocks — Section 7.1).  This module
keeps the result type it emits, :class:`RankedResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.graph import Vertex
from .mintriang import Triangulation

Separator = frozenset[Vertex]

__all__ = ["RankedResult"]


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

