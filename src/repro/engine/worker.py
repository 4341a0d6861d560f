"""Process-pool worker side of the ranked-enumeration engine.

One Lawler–Murty *expansion job* is a constraint pair ``(I, X)`` over
minimal separators; its answer is the minimum-cost minimal triangulation
under ``κ[I,X]``, found by a constrained ``MinTriang`` DP that reuses the
unconstrained table for every block no constraint separator fits into.

:class:`~repro.engine.strategy.ProcessPoolStrategy` runs these jobs in
forked worker processes.  The heavyweight shared state — the
:class:`~repro.core.context.TriangulationContext` (separators, PMCs,
blocks, candidate lists) and the unconstrained DP table — is handed to each
worker through the pool *initializer*.  Under the ``fork`` start method
the initializer arguments are inherited copy-on-write from the parent, so
nothing of the shared state is ever pickled; only the per-job constraint
pairs and per-result bag sets cross the process boundary.

The same :func:`expand_job` function also backs the serial strategy, so
both execution modes share one code path for the child optimization and
cannot drift apart semantically.
"""

from __future__ import annotations

from ..costs.base import INFEASIBLE, Bag, BagCost
from ..costs.constrained import ConstrainedCost
from ..core.context import TriangulationContext
from ..core.mintriang import min_triangulation_and_table
from ..graphs.graph import Vertex

Separator = frozenset[Vertex]

__all__ = [
    "expand_job",
    "pool_initializer",
    "pool_expand_batch",
]


def expand_job(
    context: TriangulationContext,
    cost: BagCost,
    base_table: list,
    include: frozenset[Separator],
    exclude: frozenset[Separator],
) -> tuple[frozenset[Bag], float] | None:
    """Solve ``MinTriang⟨κ[I,X]⟩`` for one Lawler–Murty child partition.

    Returns ``(bags, base_cost)`` of the partition's representative — or
    ``None`` when the partition contains no triangulation (the constrained
    DP came back infeasible).  A feasible ``κ[I,X]`` value is the ``κ``
    value, so the DP's own value is the base cost.
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


# ---------------------------------------------------------------------------
# Worker-process state (set once per worker by the pool initializer)
# ---------------------------------------------------------------------------
_WORKER_STATE: tuple[TriangulationContext, BagCost, list] | None = None


def pool_initializer(
    context: TriangulationContext, cost: BagCost, base_table: list
) -> None:
    """Install the shared enumeration state in a forked worker process."""
    global _WORKER_STATE
    _WORKER_STATE = (context, cost, base_table)


def pool_expand_batch(
    jobs: "list[tuple[frozenset[Separator], frozenset[Separator]]]",
) -> "list[tuple[frozenset[Bag], float] | None]":
    """A contiguous batch of jobs in one pickled round trip, in order.

    The dispatch unit of the batched strategy: one future per *chunk*
    instead of one per job amortizes the submit/pickle/wakeup overhead
    that made single-job dispatch slower than serial execution.
    """
    if _WORKER_STATE is None:  # pragma: no cover - defensive
        raise RuntimeError("worker used before pool_initializer ran")
    context, cost, base_table = _WORKER_STATE
    return [
        expand_job(context, cost, base_table, include, exclude)
        for include, exclude in jobs
    ]
