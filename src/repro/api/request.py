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

from dataclasses import dataclass, replace
from typing import Union

from ..costs.base import BagCost
from ..graphs.graph import Graph

__all__ = ["EnumerationRequest", "MODES"]

#: Valid request modes.
MODES = ("ranked", "diverse", "decompositions")

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
        Wall-clock seconds after which collection stops early (the
        response then carries a resumable checkpoint in ranked mode).
    answer_budget:
        Hard cap on emitted answers, applied on top of ``k``.
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
    answer_budget: int | None = None
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
        if self.k is not None and self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.min_distance < 1:
            raise ValueError(f"min_distance must be >= 1, got {self.min_distance}")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError(f"time_budget must be > 0, got {self.time_budget}")
        if self.answer_budget is not None and self.answer_budget < 0:
            raise ValueError(
                f"answer_budget must be >= 0, got {self.answer_budget}"
            )

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

    @property
    def result_limit(self) -> int | None:
        """Effective answer cap: the tighter of ``k`` and ``answer_budget``."""
        limits = [x for x in (self.k, self.answer_budget) if x is not None]
        return min(limits) if limits else None

    def with_(self, **changes: object) -> "EnumerationRequest":
        """A copy with the given fields replaced (functional update)."""
        return replace(self, **changes)
