"""One request's run over one ranked stream.

``RankedTriang`` emits one deterministic sequence per graph, cost and
width bound, so serving a request is one job whichever surface runs it:
open the ranked stream, derive the mode's answers over it (Proposition
6.1 for decompositions), cut the page on a cancel, a deadline or an
answer limit, build the page's one terminal record and store the
prefix.  :class:`Job` is that job.  :meth:`Session.execute
<repro.api.session.Session.execute>` and :meth:`Session.resume
<repro.api.session.Session.resume>` take it whole; the service
scheduler's runner takes it in slices.  Open one with
:meth:`Session.job <repro.api.session.Session.job>`.  A page the
answers tier serves whole runs no job; :func:`replayed_stats` is its
terminal record.
"""

from __future__ import annotations

import time
from itertools import islice

from ..cache.answers import MAX_PREFIX
from ..core.diversity import _fill_set
from ..core.proper import RankedDecomposition
from ..core.spanning import clique_trees
from ..preprocess.recompose import ComposedRankedStream
from ..wire import answer_line
from .response import EnumerationStats

__all__ = ["Job", "replayed_stats"]


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
    """A request's ranked stream, the mode's results over it, the page's
    stop rule, the live stretch the answers tier stores, and its one
    terminal record.

    :meth:`take` pulls the mode's results (ranked results, diverse
    triangulations or ranked decompositions) and checks, before every
    answer, the ``cancel`` event, the ``deadline`` (an instant on
    :func:`time.monotonic`) and the answer ``limit``, in that order;
    :attr:`terminal` then names how the page ended.  :meth:`take_lines`
    takes the same answers as their wire lines.  :meth:`finish`
    returns the page's :class:`~repro.api.response.EnumerationStats`.
    ``emitted`` counts the answers delivered so far, starting at the
    count delivered before the job opened (a replayed head).  ``request``
    is ``None`` for a plain ranked continuation; ``stream`` is ``None``
    only for a fresh request for zero answers, which opens nothing.
    """

    def __init__(
        self,
        request,
        stream,
        *,
        meta: dict,
        answers,
        kernel: str,
        fingerprint: str,
        cost_spec: str | None,
        started: float,
        emitted: int = 0,
        limit: int | None = None,
        deadline: float | None = None,
        cancel=None,
    ) -> None:
        self.mode = "ranked" if request is None else request.mode
        self.stream = stream
        self.emitted = emitted
        #: How the page ended (``"stats"``, ``"deadline"`` or
        #: ``"cancelled"``); ``None`` while it runs.
        self.terminal: str | None = None
        self._limit = limit
        self._deadline = deadline
        self._cancel = cancel
        self._drained = False
        if stream is None:
            self._results = iter(())
        elif self.mode == "diverse":
            # Polled once per scanned candidate, so a cancel or a
            # deadline lands mid-scan.
            self._results = _diverse_selection(
                stream, request.k, request.min_distance,
                request.scan_limit, should_stop=self.interruption,
            )
        elif self.mode == "decompositions":
            self._results = _expand_decompositions(stream, request.per_triangulation)
        else:
            self._results = stream
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
        # The collected results' wire lines, when take_lines took them.
        self._lines: list[bytes] = []
        # The checkpoint at the current position and its bytes, built
        # at the first ask and dropped by the next answer.
        self._checkpoint = None
        self._token: bytes | None = None

    def interruption(self) -> str | None:
        """The terminal an interruption calls for now, if any:
        ``"cancelled"`` once the cancel event is set, else
        ``"deadline"`` once the deadline has passed."""
        if self._cancel is not None and self._cancel.is_set():
            return "cancelled"
        if self._deadline is not None and time.monotonic() > self._deadline:
            return "deadline"
        return None

    def take(self, max_answers: int | None = None) -> list:
        """The next answers, until the page ends or ``max_answers``.

        Before each answer, the first of these that holds ends the page
        and sets :attr:`terminal`: the cancel event (``"cancelled"``),
        the deadline (``"deadline"``), the answer limit (``"stats"``).
        Only then does ``max_answers`` end the call, so the call that
        takes the last answer of a limit also ends the page.  When the
        results run out, the page ends on the interruption that holds
        then (a diverse scan stops early on one), else on ``"stats"``.
        An ended page takes nothing more.
        """
        taken: list = []
        while self.terminal is None:
            at_limit = self._limit is not None and self.emitted >= self._limit
            self.terminal = self.interruption() or ("stats" if at_limit else None)
            if self.terminal is not None or len(taken) == max_answers:
                break
            self._checkpoint = self._token = None
            try:
                result = next(self._results)
            except StopIteration:
                self._drained = True
                self.terminal = self.interruption() or "stats"
                break
            self.emitted += 1
            if self._collected is not None:
                self._collected.append(result)
                if self._base + len(self._collected) > MAX_PREFIX:
                    self._collected = None
            taken.append(result)
        return taken

    def take_lines(self, max_answers: int | None = None) -> list[bytes]:
        """:meth:`take`, each answer as its canonical wire line
        (:func:`~repro.wire.answer_line`; a diverse answer's rank is its
        selection index).  Encoded once: the answers tier stores these
        same bytes for a page taken through here."""
        first = self.emitted
        diverse = self.mode == "diverse"
        lines = [
            answer_line(result, first + i if diverse else None)
            for i, result in enumerate(self.take(max_answers))
        ]
        if self._collected is not None:
            self._lines.extend(lines)
        return lines

    def checkpoint(self):
        """The stream's frontier, in ranked mode; ``None`` otherwise.

        Built once per position: until the next answer, every call
        returns the same checkpoint.
        """
        if self.mode != "ranked" or self.stream is None:
            return None
        if self._checkpoint is None:
            self._checkpoint = self.stream.checkpoint()
        return self._checkpoint

    def token(self) -> bytes | None:
        """:meth:`checkpoint` encoded, once per position, so a resume
        token and the answers tier's end checkpoint share one encoding."""
        if self._token is None:
            checkpoint = self.checkpoint()
            if checkpoint is not None:
                self._token = checkpoint.to_bytes()
        return self._token

    def finish(self) -> EnumerationStats:
        """The page's terminal record; then publishes the live stretch
        to the answers tier and closes the job.

        Ranked and diverse pages are exhausted when the stream is; a
        decompositions page only if its expansion drained as well.  A
        page finished before :meth:`take` ended it reads ``"stats"``.
        Reading the stream's ``expansions`` and ``exhausted`` solves the
        last answer's children, so only a ranked page (its token carries
        them) or a page that ended on ``"stats"`` (its frame renders
        both fields) reads them.  A diverse or decompositions page cut
        by a cancel or a deadline runs no child DP after the cut: it
        records the DP runs made so far, and not exhausted.
        """
        stream = self.stream
        ranked = stream is not None and self.mode == "ranked"
        terminal = self.terminal or "stats"
        settle = stream is not None and (ranked or terminal == "stats")
        stats = EnumerationStats(
            fingerprint=self._fingerprint,
            mode=self.mode,
            cost_spec=self._cost_spec,
            emitted=self.emitted,
            expansions=(
                stream.expansions if settle
                else stream.expansions_so_far if stream is not None
                else 0
            ),
            init_seconds=self._meta["init_seconds"],
            context_cached=self._meta["context_cached"],
            elapsed_seconds=time.monotonic() - self._started,
            engine=stream.engine_name if stream is not None else "none",
            exhausted=settle
            and stream.exhausted
            and (self._drained or self.mode != "decompositions"),
            terminal=terminal,
            next_rank=stream.next_rank if ranked else None,
            preprocessed=isinstance(stream, ComposedRankedStream),
            kernel=self._kernel,
        )
        # Merge the live stretch into the answers tier, best-effort: a
        # cache failure (a full disk, labels a token cannot encode)
        # never fails the page that already has its answers.
        collected = self._collected
        if collected is not None and (collected or self._base != 0):
            # The lines take_lines encoded, if it took every answer.
            lines = self._lines if len(self._lines) == len(collected) else None
            try:
                self._answers.publish(
                    self._base,
                    collected,
                    self.token(),
                    exhausted=stats.exhausted,
                    preprocessed=stats.preprocessed,
                    lines=lines,
                )
            except Exception:
                pass
        self.close()
        return stats

    def close(self) -> None:
        """Release the stream (idempotent)."""
        close = getattr(self._results, "close", None)
        if close is not None:
            close()
        if self.stream is not None:
            self.stream.close()


def replayed_stats(answers, head, *, kernel: str, started: float) -> EnumerationStats:
    """The terminal record of a page the answers tier serves whole.

    ``answers`` is the :class:`~repro.cache.answers.AnswerCache` that
    replayed ``head`` (an :class:`~repro.cache.answers.AnswerPage`);
    ``started`` is the :func:`time.monotonic` instant the page began.
    No stream ran: ``engine`` reads ``"cache"`` and ``expansions`` 0.
    """
    return EnumerationStats(
        fingerprint=answers.fingerprint,
        mode="ranked",
        cost_spec=answers.cost_spec,
        emitted=len(head.answers),
        expansions=0,
        init_seconds=0.0,
        context_cached=False,
        elapsed_seconds=time.monotonic() - started,
        engine="cache",
        exhausted=head.exhausted,
        next_rank=head.end,
        preprocessed=head.preprocessed,
        kernel=kernel,
    )
