"""Pluggable expansion strategies for the ranked-enumeration engine.

After each pop, ``RankedTriang⟨κ⟩`` expands the popped partition into up
to ``k = |MinSep(H) \\ I|`` child partitions, each requiring an
independent constrained ``MinTriang⟨κ[I,X]⟩`` DP run.  Those runs share
read-only state (the triangulation context and the unconstrained DP
table) and never communicate — the textbook shape for data parallelism,
and the dominant share of the per-answer delay (Table 2 of the paper).

An :class:`ExpansionStrategy` owns how one pop's batch of jobs executes:

* :class:`SerialStrategy` — in-process loop; the paper's behavior.
* :class:`ProcessPoolStrategy` — fans the batch across a
  ``concurrent.futures`` process pool in contiguous *chunks* (at most
  one per worker), so the per-future submit/pickle overhead is paid per
  chunk, not per job.  Workers are forked after the shared state
  exists, so context and table are inherited copy-on-write (never
  pickled); results are collected **in submission order**, which keeps
  the heap insertion order — and therefore the emitted ranked sequence
  — bit-identical to the serial strategy.

Strategies are bound to one enumeration run via :meth:`bind` and released
with :meth:`close`; :func:`~repro.core.ranked.ranked_triangulations`
drives that lifecycle, including on early abandonment of the generator.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import warnings
from abc import ABC, abstractmethod
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor

from ..costs.base import Bag, BagCost
from ..core.context import TriangulationContext
from ..graphs.graph import Vertex
from .worker import expand_job, pool_expand_batch, pool_initializer

Separator = frozenset[Vertex]
#: One Lawler–Murty child partition: ``(include, exclude)``.
ExpansionJob = tuple[frozenset[Separator], frozenset[Separator]]

__all__ = ["ExpansionStrategy", "SerialStrategy", "ProcessPoolStrategy"]


class ExpansionStrategy(ABC):
    """How the enumerator executes one pop's batch of child optimizations.

    Lifecycle: :meth:`bind` once per enumeration run (receiving the shared
    read-only state), then any number of :meth:`expand` calls, then
    :meth:`close`.  A strategy instance may be re-bound for a later run
    after it has been closed.
    """

    _context: TriangulationContext | None = None
    _cost: BagCost | None = None
    _base_table: list | None = None

    def bind(
        self,
        context: TriangulationContext,
        cost: BagCost,
        base_table: list,
    ) -> None:
        """Attach the run's shared state (context, κ, unconstrained table).

        Raises
        ------
        RuntimeError
            If the strategy is already bound to a running enumeration —
            sharing one instance across *overlapping* runs would make the
            first run expand against the second run's graph.  Sequential
            reuse (after :meth:`close`) is fine.
        """
        if self._context is not None:
            raise RuntimeError(
                "strategy is already bound to a running enumeration; "
                "use one strategy instance per concurrent run"
            )
        self._context = context
        self._cost = cost
        self._base_table = base_table

    @abstractmethod
    def expand(
        self, jobs: Sequence[ExpansionJob]
    ) -> list[tuple[frozenset[Bag], float] | None]:
        """Solve every job, returning outcomes **in job order**.

        Job order is the enumerator's deterministic pivot order; keeping
        it in the result list is what preserves the exact serial emission
        sequence under any execution backend.
        """

    def close(self) -> None:
        """Release resources held for the current run."""
        self._context = None
        self._cost = None
        self._base_table = None

    def _expand_serially(
        self, jobs: Sequence[ExpansionJob]
    ) -> list[tuple[frozenset[Bag], float] | None]:
        assert self._context is not None and self._cost is not None
        return [
            expand_job(self._context, self._cost, self._base_table, inc, exc)
            for inc, exc in jobs
        ]


class SerialStrategy(ExpansionStrategy):
    """Run the child optimizations in-process, one after the other.

    This is the reference behavior (and the fastest option for small
    instances, where per-job process overhead dwarfs the DP itself).
    """

    def expand(
        self, jobs: Sequence[ExpansionJob]
    ) -> list[tuple[frozenset[Bag], float] | None]:
        return self._expand_serially(jobs)


class ProcessPoolStrategy(ExpansionStrategy):
    """Fan each pop's ``k`` sibling DP runs across a process pool.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()``.
    fallback_to_serial:
        On platforms without the ``fork`` start method the copy-on-write
        sharing scheme is unavailable; with this flag (the default) the
        strategy degrades to serial execution instead of raising.

    Notes
    -----
    The pool is created lazily inside :meth:`bind` — after the shared
    state exists — because forked workers receive the context and base
    table through the pool initializer's arguments, which the ``fork``
    start method inherits by memory copy rather than pickling.  ``bind``
    builds the context's separator index (and candidate lists) first, so
    the workers inherit those too.  Only the small per-job constraint
    pairs and per-result bag sets are pickled.

    Dispatch is **batched**: each pop's ``k`` jobs are split into at
    most ``workers`` contiguous chunks, one future (one pickle round
    trip) per chunk.  Single-job futures paid the submit/pickle/wakeup
    tax ``k`` times per pop and ran *slower* than serial on real
    instances; chunking pays it at most ``workers`` times while keeping
    every core busy.

    Emission order is preserved exactly: chunks are contiguous and their
    futures are awaited in submission (pivot) order, so heap pushes
    happen in the same order with the same tie-break counters as under
    :class:`SerialStrategy`.
    """

    def __init__(
        self, workers: int | None = None, fallback_to_serial: bool = True
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.fallback_to_serial = fallback_to_serial
        self._executor: ProcessPoolExecutor | None = None

    def bind(
        self,
        context: TriangulationContext,
        cost: BagCost,
        base_table: list,
    ) -> None:
        # Check platform support before taking the bound state, so a
        # failed bind leaves the instance reusable.  macOS lists 'fork'
        # but CPython documents forking as unsafe there (system-framework
        # state can crash forked children), so treat it as unavailable.
        have_fork = (
            "fork" in multiprocessing.get_all_start_methods()
            and sys.platform != "darwin"
        )
        if not have_fork and not self.fallback_to_serial:
            raise RuntimeError(
                "ProcessPoolStrategy requires the 'fork' start method; "
                "pass fallback_to_serial=True or use SerialStrategy"
            )
        super().bind(context, cost, base_table)
        if not have_fork:
            warnings.warn(
                "'fork' start method unavailable on this platform; "
                "ProcessPoolStrategy is running serially",
                RuntimeWarning,
                stacklevel=2,
            )
            self._executor = None
            return
        try:
            # Build the separator index in the parent so forked workers
            # inherit it copy-on-write instead of each rebuilding it.
            context.separator_index()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers or os.cpu_count() or 1,
                mp_context=multiprocessing.get_context("fork"),
                initializer=pool_initializer,
                initargs=(context, cost, base_table),
            )
        except BaseException:
            ExpansionStrategy.close(self)  # failed bind must not stay bound
            raise

    def expand(
        self, jobs: Sequence[ExpansionJob]
    ) -> list[tuple[frozenset[Bag], float] | None]:
        if self._executor is None or len(jobs) <= 1:
            # Fork unavailable, or a single job: IPC would only add latency.
            return self._expand_serially(jobs)
        pool_size = self._executor._max_workers
        chunks = self._chunk(list(jobs), pool_size)
        futures = [
            self._executor.submit(pool_expand_batch, chunk)
            for chunk in chunks
        ]
        results: list[tuple[frozenset[Bag], float] | None] = []
        for future in futures:
            results.extend(future.result())
        return results

    @staticmethod
    def _chunk(
        jobs: list[ExpansionJob], pool_size: int
    ) -> list[list[ExpansionJob]]:
        """Split into at most ``pool_size`` contiguous, near-equal chunks."""
        n_chunks = min(pool_size, len(jobs))
        base, extra = divmod(len(jobs), n_chunks)
        chunks = []
        start = 0
        for i in range(n_chunks):
            size = base + (1 if i < extra else 0)
            chunks.append(jobs[start : start + size])
            start += size
        return chunks

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        super().close()
