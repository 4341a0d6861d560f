"""One Lawler–Murty child expansion of the ranked loop.

After each pop, ``RankedTriang⟨κ⟩`` splits the popped partition into up
to ``k = |MinSep(H) \\ I|`` child partitions, each an independent
constrained ``MinTriang⟨κ[I,X]⟩`` DP run over the shared, read-only
triangulation context and unconstrained DP table.
:class:`~repro.api.stream.RankedStream` runs them one after the other,
in pivot order, calling :func:`expand_job` through this module's
attribute, so a wrapper installed here sees every child.
"""

from __future__ import annotations

from ..costs.base import INFEASIBLE, Bag, BagCost
from ..costs.constrained import ConstrainedCost
from ..core.context import TriangulationContext
from ..core.mintriang import min_triangulation_and_table
from ..graphs.graph import Vertex

Separator = frozenset[Vertex]

__all__ = ["expand_job"]


def expand_job(
    context: TriangulationContext,
    cost: BagCost,
    base_table: list,
    include: frozenset[Separator],
    exclude: frozenset[Separator],
) -> tuple[frozenset[Bag], float] | None:
    """Solve ``MinTriang⟨κ[I,X]⟩`` for one Lawler–Murty child partition.

    The constrained DP reuses the unconstrained ``base_table`` for every
    block no constraint separator touches.  Returns ``(bags, base_cost)``
    of the partition's representative — or ``None`` when the partition
    contains no triangulation (the constrained DP came back infeasible).
    A feasible ``κ[I,X]`` value is the ``κ`` value, so the DP's own value
    is the base cost.
    """
    constrained = ConstrainedCost(cost, include=include, exclude=exclude)
    candidate, _table = min_triangulation_and_table(
        context,
        constrained,
        reusable_table=base_table,
        constraint_separators=include | exclude,
    )
    if candidate is None or candidate.cost >= INFEASIBLE:
        return None
    return candidate.bags, candidate.cost
