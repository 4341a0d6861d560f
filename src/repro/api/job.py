"""One request's run over one ranked stream.

``RankedTriang`` emits one deterministic sequence per graph, cost and
width bound, so serving a request is one job whichever surface runs it:
open the ranked stream, derive the mode's answers over it (Proposition
6.1 for decompositions), stop on a limit or a clock, report stats and
store the prefix.  :class:`Job` is that job.  :meth:`Session.execute
<repro.api.session.Session.execute>` and :meth:`Session.resume
<repro.api.session.Session.resume>` pull it to completion; the service
scheduler's runner pulls it in slices.  Open one with
:meth:`Session.job <repro.api.session.Session.job>`.
"""

from __future__ import annotations

import time
from itertools import islice

from ..cache.answers import MAX_PREFIX
from ..core.diversity import _fill_set
from ..core.proper import RankedDecomposition
from ..core.spanning import clique_trees
from ..preprocess.recompose import ComposedRankedStream
from .response import EnumerationStats

__all__ = ["Job"]


def _diverse_selection(
    stream,
    k: int,
    min_distance: int,
    scan_limit: int | None = None,
    should_stop=None,
):
    """Greedy quality/diversity selection over a ranked stream.

    Scans (at most ``scan_limit``, default ``25 * k``) results in ranked
    order and yields the triangulations that are >= ``min_distance``
    fill edges away from every previously kept one, stopping after
    ``k`` keeps.  ``should_stop`` (if given) is polled once per scanned
    result, so a time budget, a cancel or a deadline lands mid-scan.
    """
    if scan_limit is None:
        scan_limit = 25 * k
    kept_fills: list[frozenset] = []
    for result in islice(stream, scan_limit):
        fill = _fill_set(result.triangulation)
        if all(
            len(fill ^ other) >= min_distance for other in kept_fills
        ):
            kept_fills.append(fill)
            yield result.triangulation
            if len(kept_fills) >= k:
                return
        if should_stop is not None and should_stop():
            return


def _expand_decompositions(stream, per_triangulation: int | None):
    """Proposition 6.1: expand a ranked triangulation stream into its
    clique trees, preserving cost order."""
    rank = 0
    for result in stream:
        trees = clique_trees(result.triangulation.chordal_graph)
        if per_triangulation is not None:
            trees = islice(trees, per_triangulation)
        for td in trees:
            yield RankedDecomposition(
                decomposition=td,
                cost=result.cost,
                triangulation=result.triangulation,
                rank=rank,
            )
            rank += 1


class Job:
    """A request's ranked stream, the mode's results over it, the live
    stretch the answers tier stores, and its one stats block.

    Iterate it for the mode's results: ranked results, diverse
    triangulations or ranked decompositions.  ``emitted`` counts the
    answers delivered so far, starting at the count delivered before
    the job opened (a replayed head).  ``stream`` is ``None`` only for
    a fresh request for zero answers, which opens nothing.
    """

    def __init__(
        self,
        mode: str,
        stream,
        results,
        *,
        meta: dict,
        answers,
        kernel: str,
        fingerprint: str,
        cost_spec: str | None,
        started: float,
        emitted: int = 0,
    ) -> None:
        self.mode = mode
        self.stream = stream
        self.emitted = emitted
        self._results = results
        self._meta = meta
        self._answers = answers
        self._kernel = kernel
        self._fingerprint = fingerprint
        self._cost_spec = cost_spec
        self._started = started
        # The live ranked run the answers tier stores: the stream's
        # results from the rank it opened at, until the run would pass
        # MAX_PREFIX (then None for the rest of the job: the end
        # checkpoint sits at the stream's position, not the stretch's).
        self._base = stream.next_rank if stream is not None else 0
        self._collected: list | None = [] if answers is not None else None

    def __iter__(self) -> "Job":
        return self

    def __next__(self):
        if self._results is None:
            raise StopIteration
        result = next(self._results)
        self.emitted += 1
        if self._collected is not None:
            self._collected.append(result)
            if self._base + len(self._collected) > MAX_PREFIX:
                self._collected = None
        return result

    def checkpoint(self):
        """The stream's frontier, in ranked mode; ``None`` otherwise."""
        if self.mode != "ranked" or self.stream is None:
            return None
        return self.stream.checkpoint()

    def stats(
        self, *, drained: bool = False, timed_out: bool = False
    ) -> EnumerationStats:
        """The job's measurements; ``drained`` says the results ran out.

        Ranked and diverse pages are exhausted when the stream is; a
        decomposition page only if its expansion drained as well.
        """
        stream = self.stream
        return EnumerationStats(
            fingerprint=self._fingerprint,
            mode=self.mode,
            cost_spec=self._cost_spec,
            emitted=self.emitted,
            expansions=stream.expansions if stream is not None else 0,
            init_seconds=self._meta["init_seconds"],
            context_cached=self._meta["context_cached"],
            elapsed_seconds=time.perf_counter() - self._started,
            engine=stream.engine_name if stream is not None else "none",
            exhausted=stream is not None
            and stream.exhausted
            and (drained or self.mode != "decompositions"),
            timed_out=timed_out,
            preprocessed=isinstance(stream, ComposedRankedStream),
            kernel=self._kernel,
        )

    def publish(self) -> None:
        """Merge the live stretch into the answers tier, best-effort.

        Call it only where the stream stopped between answers.  A cache
        failure (a full disk, labels a token cannot encode) never fails
        the request that already has its answers.
        """
        collected = self._collected
        if collected is None or (not collected and self._base == 0):
            return
        stream = self.stream
        try:
            self._answers.publish(
                self._base,
                collected,
                stream.checkpoint().to_bytes(),
                exhausted=stream.exhausted,
                preprocessed=isinstance(stream, ComposedRankedStream),
            )
        except Exception:
            pass

    def close(self) -> None:
        """Release the stream (idempotent)."""
        close = getattr(self._results, "close", None)
        if close is not None:
            close()
        if self.stream is not None:
            self.stream.close()
