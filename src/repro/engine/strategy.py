"""One Lawler–Murty child expansion of the ranked loop.

After each pop, ``RankedTriang⟨κ⟩`` splits the popped partition into up
to ``k = |MinSep(H) \\ I|`` child partitions, each an independent
constrained ``MinTriang⟨κ[I,X]⟩`` DP run over the shared, read-only
triangulation context and unconstrained DP table.
:class:`~repro.api.stream.RankedStream` runs them one after the other,
in pivot order, calling :func:`expand_job` through this module's
attribute, so a wrapper installed here sees every child it solves; the
children its crossing test rules out as infeasible never reach it.
"""

from __future__ import annotations

from ..costs.base import BagCost
from ..core.context import TriangulationContext
from ..core.mintriang import constrained_min_bags

__all__ = ["expand_job"]


def expand_job(
    context: TriangulationContext,
    cost: BagCost,
    base_table: list,
    include: int,
    exclude: int,
    floor: float,
) -> tuple[int, float] | None:
    """Solve ``MinTriang⟨κ[I,X]⟩`` for one Lawler–Murty child partition.

    ``include`` and ``exclude`` are masks over the context's
    :class:`~repro.core.context.SeparatorIndex`.  The constrained DP
    reuses the unconstrained ``base_table`` for every block no
    constraint separator touches.  ``floor`` is a lower bound on the
    child's optimum (the ranked loop passes the popped parent's value),
    at which a monotone fold ends its root scan (see
    :func:`~repro.core.mintriang.constrained_min_bags`).  Returns
    ``(bags, base_cost)`` of the partition's representative, its bags as
    a mask over
    :meth:`~repro.core.context.TriangulationContext.root_pmc_order` — or
    ``None`` when the partition contains no triangulation (the
    constrained DP came back infeasible).  A feasible ``κ[I,X]`` value is
    the ``κ`` value, so the DP's own value is the base cost.
    """
    found = constrained_min_bags(
        context, cost, base_table, include, exclude, floor
    )
    if found is None:
        return None
    value, bags = found
    return context.bag_mask(bags), value
