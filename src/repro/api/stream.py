"""``RankedStream``: the resumable ranked-enumeration loop.

This is ``RankedTriang⟨κ⟩(G)`` (Figure 4 of the paper) as an explicit
state machine rather than a generator, so its priority-queue frontier can
be checkpointed between answers and resumed later — by the same session,
a fresh session, or another process.

Lawler–Murty partitioning over the space of minimal triangulations, each
identified with its maximal set of pairwise-parallel minimal separators
(Parra–Scheffler).  A partition is an inclusion/exclusion constraint pair
``[I, X]`` over minimal separators, represented in the priority queue by
its minimum-cost member, found by ``MinTriang⟨κ[I,X]⟩`` with the
constraints compiled into the cost (Section 6.1).

Popping the minimum-cost partition emits its representative ``H`` and
splits the remainder of the partition: with ``MinSep(H) \\ I = {S_1..S_k}``
the children are ``[I ∪ {S_1..S_{i-1}}, X ∪ {S_i}]`` for ``i = 1..k``.
(The paper's pseudocode writes the loop bound as ``k − 1``; the partition
argument in the text requires covering the branch that excludes ``S_k``
while including the rest, so we run the loop through ``k`` — with ``k-1``
the enumeration demonstrably misses answers on small graphs, see
``tests/core/test_ranked.py::test_partition_loop_covers_all_answers``.)
``MinSep(H)`` is read off the context's
:class:`~repro.core.context.SeparatorIndex`, not recomputed from a clique
tree: the minimal separators of a minimal triangulation ``H`` are the
members of ``MinSep(G)`` that lie inside one bag of ``H``, so
``MinSep(H)`` is the OR of the bags' masks, and its bits ascend in the
pivot order ``S_1..S_k`` (``vertex_set_sort_key`` over the separators).

The frontier is integers from end to end.  A heap entry is ``(value,
order, bags, I, X)``: ``bags`` is a mask over
:meth:`~repro.core.context.TriangulationContext.root_pmc_order` (every
bag of a minimal triangulation within the width bound is a PMC of the
context), and ``I``/``X`` are masks over the separator index, so a child
is ``I | accumulated`` and ``X | bit``, and :meth:`RankedStream.checkpoint`
copies ints.  A popped entry's masks become the context's own PMC and
separator objects once per pop, for the :class:`RankedResult`.

A pop emits its answer at once, as ``RankedTriang`` prints ``H`` before
it splits the partition: ``next()`` parks the popped entry's
``(MinSep(H), I, X)`` and returns.  The parked children are solved and
pushed by :meth:`RankedStream._settle`, which runs at the start of the
next ``next()`` and before every reader of the frontier or the work
count (:meth:`~RankedStream.checkpoint`, :attr:`~RankedStream.exhausted`,
:attr:`~RankedStream.expansions`).  Pushes and pops happen in the same
sequence either way, so answers, checkpoints and stats are those of a
stream that solves every child before it returns; only the moment the
child DPs run moves, and a stream nobody reads after its last answer
never solves that answer's children.  The ``k`` child optimizations of
one pop run in process, one after the other in pivot order, each a call
of :func:`repro.engine.strategy.expand_job` against the unconstrained DP
table the stream holds.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Iterator

from ..costs.base import BagCost
from ..core.context import TriangulationContext
from ..core.mintriang import Triangulation, min_triangulation_and_table
from ..core.ranked import RankedResult
from ..engine import strategy
from .checkpoint import FrontierEntry, StreamCheckpoint, TokenGraph

#: Heap entry layout: ``(value, order, bags, include, exclude)``, the
#: last three masks (see the module docstring).  The FIFO ``order`` is
#: unique, so comparisons never reach the masks.
_HeapEntry = tuple

__all__ = ["RankedStream"]

#: The graph of a checkpoint taken without a context (the empty graph).
_EMPTY_GRAPH = TokenGraph((), ())

#: ``(first, base_table)`` as produced by ``min_triangulation_and_table``;
#: sessions cache this per (context, cost spec) so repeated requests and
#: resumes skip the unconstrained DP.
Prepared = tuple


class RankedStream(Iterator[RankedResult]):
    """A cost-ranked stream of minimal triangulations, pausable at any rank.

    Build with :meth:`start` (rank 0) or :meth:`from_checkpoint` (resume);
    iterate to receive :class:`~repro.core.ranked.RankedResult` objects in
    non-decreasing cost order, :meth:`checkpoint` at any point to capture
    the frontier, and :meth:`close` to end iteration early (``with``
    blocks and ``contextlib.closing`` both work).
    """

    def __init__(
        self,
        *,
        context: TriangulationContext | None,
        cost: BagCost | None,
        cost_spec: str | None,
        fingerprint: str,
        heap: list[_HeapEntry],
        next_rank: int,
        next_order: int,
        base_table: list | None,
        started: float | None = None,
    ) -> None:
        self._context = context
        self._cost = cost
        self._cost_spec = cost_spec
        self._fingerprint = fingerprint
        self._heap = heap
        heapq.heapify(self._heap)
        self._rank = next_rank
        self._base_rank = next_rank
        self._order = next_order
        # The unconstrained DP table every child run reuses; ``None``
        # only for a stream that was exhausted when it was opened.
        self._base_table = base_table
        self.engine_name = "none" if base_table is None else "serial"
        self._expansions = 0
        self._closed = False
        # The last answer's ``(MinSep(H), I, X)`` masks while its
        # children are still unsolved (see _settle), else None.
        self._pending: tuple[int, int, int] | None = None
        # The delay clock: covers the unconstrained DP when this stream
        # ran it (the constructors start the clock before preparing), so
        # rank-0 delay keeps the paper's "init included" accounting.
        self._started = time.perf_counter() if started is None else started

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def start(
        cls,
        context: TriangulationContext | None,
        cost: BagCost | None,
        *,
        cost_spec: str | None = None,
        fingerprint: str = "",
        prepared: Prepared | None = None,
    ) -> "RankedStream":
        """Begin an enumeration at rank 0.

        ``context=None`` (the empty graph) yields an exhausted stream.
        ``prepared`` is an optional cached ``(first, base_table)`` pair;
        without it the unconstrained ``MinTriang`` DP runs here, inside
        the stream's delay clock.
        """
        started = time.perf_counter()
        if context is None or context.graph.num_vertices() == 0:
            return cls._exhausted(cost_spec=cost_spec, fingerprint=fingerprint)
        assert cost is not None
        if prepared is None:
            prepared = min_triangulation_and_table(context, cost)
        first, base_table = prepared
        if first is None:
            return cls._exhausted(
                context=context, cost_spec=cost_spec, fingerprint=fingerprint
            )
        heap = [(first.cost, 0, context.bag_mask(first.bags), 0, 0)]
        return cls(
            context=context,
            cost=cost,
            cost_spec=cost_spec,
            fingerprint=fingerprint,
            heap=heap,
            next_rank=0,
            next_order=1,
            base_table=base_table,
            started=started,
        )

    @classmethod
    def from_checkpoint(
        cls,
        context: TriangulationContext | None,
        cost: BagCost | None,
        checkpoint: StreamCheckpoint,
        *,
        prepared: Prepared | None = None,
    ) -> "RankedStream":
        """Resume the exact sequence a prior stream paused.

        The frontier (constraint pairs, representatives, tie-break
        counters) comes from the checkpoint; the unconstrained DP table —
        a deterministic function of (graph, cost) — is recomputed unless a
        cached ``prepared`` pair is supplied.

        Raises
        ------
        ValueError
            If a frontier mask names a PMC or separator ``context`` does
            not have (a token for another graph or width bound).
        """
        started = time.perf_counter()
        if not checkpoint.frontier:
            return cls._exhausted(
                context=context,
                cost_spec=checkpoint.cost_spec,
                fingerprint=checkpoint.fingerprint,
                next_rank=checkpoint.next_rank,
                next_order=checkpoint.next_order,
            )
        assert context is not None and cost is not None
        if prepared is None:
            prepared = min_triangulation_and_table(context, cost)
        _first, base_table = prepared
        if checkpoint.width_bound != context.width_bound:
            raise ValueError(
                f"checkpoint was taken under width bound {checkpoint.width_bound}, "
                f"the context has {context.width_bound}"
            )
        heap = list(checkpoint.frontier)
        pmcs = len(context.root_pmc_order())
        separators = len(context.separator_masks)
        for _value, _order, bags, include, exclude in heap:
            if (
                not bags
                or bags >> pmcs
                or (include | exclude) >> separators
                or include & exclude
            ):
                raise ValueError(
                    "checkpoint frontier does not fit this graph's PMCs "
                    "and minimal separators; the token is corrupted"
                )
        return cls(
            context=context,
            cost=cost,
            cost_spec=checkpoint.cost_spec,
            fingerprint=checkpoint.fingerprint,
            heap=heap,
            next_rank=checkpoint.next_rank,
            next_order=checkpoint.next_order,
            base_table=base_table,
            started=started,
        )

    @classmethod
    def _exhausted(
        cls,
        context: TriangulationContext | None = None,
        cost_spec: str | None = None,
        fingerprint: str = "",
        next_rank: int = 0,
        next_order: int = 0,
    ) -> "RankedStream":
        return cls(
            context=context,
            cost=None,
            cost_spec=cost_spec,
            fingerprint=fingerprint,
            heap=[],
            next_rank=next_rank,
            next_order=next_order,
            base_table=None,
        )

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> "RankedStream":
        return self

    def __next__(self) -> RankedResult:
        if self._closed:
            raise StopIteration
        self._settle()
        if not self._heap:
            raise StopIteration
        value, _order, bag_mask, include, exclude = heapq.heappop(self._heap)
        context = self._context
        assert context is not None
        # The bags are the PMCs of bag_mask; MinSep(H) is the OR of their
        # separator masks (see SeparatorIndex).
        index = context.separator_index()
        pmc_order = context.root_pmc_order()
        pmc_masks = index.pmcs
        bags = []
        separators = 0
        rest = bag_mask
        while rest:
            low = rest & -rest
            bag = pmc_order[low.bit_length() - 1]
            bags.append(bag)
            separators |= pmc_masks[bag]
            rest ^= low
        result = RankedResult(
            triangulation=Triangulation(context.graph, frozenset(bags), value),
            rank=self._rank,
            elapsed_seconds=time.perf_counter() - self._started,
            include=frozenset(index.members(include)),
            exclude=frozenset(index.members(exclude)),
        )
        self._rank += 1
        self._pending = (separators, include, exclude)
        return result

    def _settle(self) -> None:
        """Solve and push the last answer's children, if still pending."""
        if self._pending is None:
            return
        separators, include, exclude = self._pending
        self._pending = None
        context = self._context
        # The pivots MinSep(H) \ I ascend in pivot order, so the children
        # are solved and pushed in pivot order, which fixes the emitted
        # sequence.
        pivots = separators & ~include
        accumulated = 0
        while pivots:
            pivot = pivots & -pivots
            pivots ^= pivot
            child_include = include | accumulated
            child_exclude = exclude | pivot
            accumulated |= pivot
            # Through the module attribute, so a wrapper installed on
            # ``repro.engine.strategy.expand_job`` sees every child.
            outcome = strategy.expand_job(
                context, self._cost, self._base_table,
                child_include, child_exclude,
            )
            self._expansions += 1
            if outcome is None:
                continue
            child_bags, child_value = outcome
            heapq.heappush(
                self._heap,
                (child_value, self._order, child_bags, child_include, child_exclude),
            )
            self._order += 1

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the enumerated graph."""
        return self._fingerprint

    @property
    def cost_spec(self) -> str | None:
        """Registry name of the cost, when it was given as one."""
        return self._cost_spec

    @property
    def next_rank(self) -> int:
        """Rank the next emitted result will carry."""
        return self._rank

    @property
    def emitted(self) -> int:
        """Number of results emitted by *this* stream object."""
        return self._rank - self._base_rank

    @property
    def expansions(self) -> int:
        """Constrained ``MinTriang⟨κ[I,X]⟩`` runs executed so far,
        counting the last answer's children: reading it may run their
        DPs (see :meth:`_settle`)."""
        self._settle()
        return self._expansions

    @property
    def exhausted(self) -> bool:
        """Whether the enumeration space is fully emitted.  Reading it
        may run the last answer's child DPs (see :meth:`_settle`)."""
        self._settle()
        return not self._heap

    def checkpoint(self) -> StreamCheckpoint:
        """Snapshot the frontier; the stream remains usable afterwards.

        The frontier is stored in sorted (pop) order — a canonical form;
        any heap layout of the same entries pops identically because the
        ``(value, order)`` prefix is a total order.  The graph is the
        context's shared :class:`~repro.api.checkpoint.TokenGraph`.
        The last answer's children are solved first (see
        :meth:`_settle`), so a checkpoint never depends on when it is
        taken between two answers.
        """
        self._settle()
        context = self._context
        if context is not None:
            graph = context.token_graph()
            width_bound = context.width_bound
        else:
            graph = _EMPTY_GRAPH
            width_bound = None
        return StreamCheckpoint(
            fingerprint=self._fingerprint,
            cost_spec=self._cost_spec,
            width_bound=width_bound,
            next_rank=self._rank,
            next_order=self._order,
            frontier=tuple(map(FrontierEntry._make, sorted(self._heap))),
            graph=graph,
        )

    def close(self) -> None:
        """End iteration: later ``next()`` calls raise ``StopIteration``.
        Idempotent; :meth:`checkpoint` and the stats still work after it,
        solving the last answer's children if they are pending."""
        self._closed = True

    def __enter__(self) -> "RankedStream":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
