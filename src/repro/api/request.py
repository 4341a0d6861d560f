"""Typed request objects for the session layer.

One :class:`EnumerationRequest` describes everything a serving endpoint
needs to answer a ranked-enumeration call: the graph source, the cost
spec, how many answers, in which mode (plain ranked, diverse, or tree
decompositions), and under what budgets.  Sessions dispatch on
:attr:`EnumerationRequest.mode` via :meth:`repro.api.Session.execute`,
and the convenience methods (``top`` / ``diverse`` /
``decompositions``) are thin constructors over this dataclass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Union

from ..costs.base import BagCost
from ..graphs.graph import Graph

__all__ = ["EnumerationRequest", "MODES", "check_bounds"]

#: Valid request modes.
MODES = ("ranked", "diverse", "decompositions")

# The numeric bounds of a request, one row per field:
# ``(field, relation, bound)``.  Both request types hold to them, the
# library's EnumerationRequest and the service's ServiceRequest.
_BOUNDS = (
    ("k", ">=", 0),
    ("min_distance", ">=", 1),
    ("scan_limit", ">=", 1),
    ("per_triangulation", ">=", 1),
    ("time_budget", ">", 0),
    ("deadline", ">", 0),
)

_HOLDS = {">=": operator.ge, ">": operator.gt}


def check_bounds(request) -> None:
    """Raise :class:`ValueError` on the first field of ``request``
    outside its bound.

    A field that is ``None``, or that the request type lacks, is
    unbounded.  The check asks whether the bound holds, so NaN, which
    fails every comparison, is refused; infinity passes a lower bound.
    """
    for name, relation, bound in _BOUNDS:
        value = getattr(request, name, None)
        if value is not None and not _HOLDS[relation](value, bound):
            raise ValueError(f"{name} must be {relation} {bound}, got {value}")


GraphSource = Union[Graph, str]
CostSpec = Union[str, BagCost]


@dataclass(frozen=True)
class EnumerationRequest:
    """One ranked-enumeration request against a session.

    Attributes
    ----------
    graph:
        A :class:`~repro.graphs.graph.Graph`, or a path to a PACE ``.gr``
        / DIMACS ``.col`` file (loaded on execution).
    cost:
        A registry name (``"width"``, ``"fill"``, ...) or a
        :class:`~repro.costs.base.BagCost` instance.  Registry names
        additionally enable the session's prepared-table cache and are
        recorded in checkpoints, making them resumable without re-passing
        the cost object.
    k:
        Number of answers to return; ``None`` drains the stream (subject
        to the budgets below).
    mode:
        ``"ranked"`` — the cost-ranked stream; ``"diverse"`` — greedy
        quality/diversity selection over the ranked prefix;
        ``"decompositions"`` — proper tree decompositions (clique trees
        of the enumerated triangulations).
    width_bound:
        Restrict to triangulations of width ≤ bound (``MinTriangB``).
    min_distance, scan_limit:
        Diversity-mode knobs: minimum pairwise fill-set distance between
        kept results, and the ranked-prefix length scanned (default
        ``25 * k``).
    per_triangulation:
        Decompositions-mode cap on clique trees expanded per
        triangulation (``1`` = bag-distinct results only).
    preprocess:
        Whether to route through the preprocessing pipeline (safe
        reductions + clique-separator atoms with exact ranked
        recomposition, :mod:`repro.preprocess`).  ``None`` (default)
        defers to the session; ``True`` enables it where it applies —
        a registry-name cost with a declared composition on a graph
        that actually decomposes — and silently falls back to the
        direct pipeline otherwise; ``False`` forces the direct
        pipeline.  Both routes rank over the full graph and agree on
        every cost and every answer set.
    time_budget:
        Wall-clock seconds from the call's start after which collection
        stops, checked before every answer, the first included, as the
        service checks its ``deadline`` (the response then reads
        ``stats.terminal == "deadline"`` and, in ranked mode, carries a
        resumable checkpoint).
    """

    graph: GraphSource
    cost: CostSpec = "width"
    k: int | None = None
    mode: str = "ranked"
    width_bound: int | None = None
    min_distance: int = 1
    scan_limit: int | None = None
    per_triangulation: int | None = None
    time_budget: float | None = None
    preprocess: bool | None = None

    def __post_init__(self) -> None:
        if self.preprocess is not None and not isinstance(self.preprocess, bool):
            raise TypeError(
                f"preprocess must be True, False or None, got {self.preprocess!r}"
            )
        if self.mode not in MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {', '.join(MODES)}"
            )
        if not isinstance(self.cost, (str, BagCost)):
            raise TypeError(
                "cost must be a registry name or a BagCost instance, "
                f"got {type(self.cost).__name__}"
            )
        check_bounds(self)

    # ------------------------------------------------------------------
    def resolve_graph(self) -> Graph:
        """The request's graph, loading it from disk when given a path."""
        if isinstance(self.graph, Graph):
            return self.graph
        from ..graphs.io import read_graph

        return read_graph(self.graph)

    @property
    def cost_spec(self) -> str | None:
        """The registry name of the cost, when it was given as one."""
        return self.cost if isinstance(self.cost, str) else None

    def with_(self, **changes: object) -> "EnumerationRequest":
        """A copy with the given fields replaced (functional update)."""
        return replace(self, **changes)
