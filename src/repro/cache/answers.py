"""The ``answers`` artifact kind: cached ranked answer prefixes.

The ranked-enumeration guarantee makes the top-k answer sequence for a
(fingerprint, cost spec, width bound, preprocess mode) key a pure
value: the same request always yields the same triangulations in the
same order, under every graph kernel.  This module stores that value —
the first ``k`` answers plus the frontier checkpoint *at* position
``k`` — so repeat requests replay from disk and longer requests resume
from the stored frontier instead of re-running the Lawler–Murty loop
from rank 0.  :class:`AnswerCache` is the one path to the kind: the
session layer and the service scheduler both probe, replay and publish
through it, and :meth:`AnswerCache.replay` is the one page decision —
the longest head of a page the record can serve, after which a live job
runs the rest from the head's stored frontier.

Design notes
------------
* Answers are stored as :class:`CachedAnswer` rows (cost, bags,
  constraint pair), **not** as rendered frames.  Serving rebuilds a
  :class:`~repro.core.ranked.RankedResult` and derives the frame via
  :func:`repro.service.protocol.answer_frame`, which is a pure function
  of (cost, bags, rank) — so served bytes are identical to live
  enumeration by construction, without pinning pickle byte layouts.
* ``checkpoints`` maps *answer positions* to checkpoint tokens
  (``StreamCheckpoint``/``ComposedCheckpoint`` ``to_bytes()``, canonical
  bytes, so a replayed page's checkpoint re-serializes to them).  A
  record always holds a checkpoint at ``len(answers)`` — including an
  empty-frontier one when the stream is exhausted — so every replay can
  hand back a resumable (or terminal) checkpoint, exactly like a live
  collect.  Interior positions accrue as requests with smaller ``k``
  run live or replay: each stored position becomes servable later.
* ``merge_prefix`` only ever *extends* a record (or adds interior
  checkpoints) up to :data:`MAX_PREFIX` answers; it never shrinks a
  longer prefix, and it refuses gaps — a run must start at a position
  the record already covers.  :meth:`AnswerCache.publish` re-reads the
  record before merging, so a longer prefix stored meanwhile survives.
* No kernel in the key: every kernel enumerates the same sequence and
  checkpoints carry none, so a record serves every kernel.
* Eviction: one record per key, LRU'd by the store like any other kind;
  extension rewrites the row, which also bumps recency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.mintriang import Triangulation
from ..core.ranked import RankedResult
from ..preprocess.recompose import composition_for
from .store import answers_key

__all__ = [
    "ANSWERS_VERSION",
    "MAX_PREFIX",
    "AnswerCache",
    "AnswerPage",
    "AnswerPrefix",
    "CachedAnswer",
    "merge_prefix",
    "preprocess_applies_for",
]

#: Version folded into the artifact key (and stored on the record):
#: bump on any change to the record layout or replay semantics.
#: v2: the stored checkpoints are binary tokens (were pickle payloads).
ANSWERS_VERSION = 2

#: Longest prefix a single record will grow to.  Beyond this, requests
#: fall through to live enumeration (the frontier at the cap is still
#: stored, so serving the capped prefix stays a disk read).
MAX_PREFIX = 512


@dataclass(frozen=True)
class CachedAnswer:
    """One enumerated answer, stripped of timing metadata.

    Holds exactly what :func:`~repro.service.protocol.answer_frame` and
    result reconstruction need; ``elapsed_seconds`` is intentionally
    absent (frames are timing-free, replayed results carry 0.0).
    """

    cost: float
    bags: frozenset
    include: frozenset
    exclude: frozenset


@dataclass(frozen=True)
class AnswerPrefix:
    """A cached ranked prefix plus resumable frontiers.

    Attributes
    ----------
    fingerprint, cost_spec:
        Identity of the enumerated sequence (also folded into the
        artifact key; kept on the record for defensive validation).
    answers:
        The first ``len(answers)`` results of the ranked sequence.
    checkpoints:
        Serialized checkpoint bytes by answer position.  Invariant:
        ``len(answers)`` is always a key.
    exhausted:
        Whether ``answers`` is the *entire* sequence.
    preprocessed:
        Whether the producing pipeline was composed (preprocessed) —
        the actual pipeline, which may differ from the requested mode
        when preprocessing finds only a trivial plan.
    version:
        :data:`ANSWERS_VERSION` at write time.
    """

    fingerprint: str
    cost_spec: str
    answers: tuple[CachedAnswer, ...]
    checkpoints: dict[int, bytes]
    exhausted: bool
    preprocessed: bool
    version: int = ANSWERS_VERSION

    def covers(self, start: int, limit: int | None) -> bool:
        """Whether ``limit`` answers from position ``start`` are servable.

        Servable means: the answers are stored AND a checkpoint exists
        at the reply position (or the sequence provably ends first, at
        ``len(answers)``, which always holds one).
        """
        n = len(self.answers)
        if start > n:
            return False
        if limit is None:
            return self.exhausted
        end = start + limit
        if end <= n and end in self.checkpoints:
            return True
        # A record that ends the sequence covers any request reaching
        # past the stored prefix — but an *interior* page without a
        # stored checkpoint cannot be served: its reply would have no
        # resume frontier even though the sequence continues.
        return self.exhausted and end >= n


@dataclass(frozen=True)
class AnswerPage:
    """A replayed page head: results (absolute ranks, 0.0 timings), the
    position after them, the serialized frontier there, whether the
    head ends the sequence and whether its pipeline was composed."""

    results: tuple[RankedResult, ...]
    end: int
    checkpoint: bytes
    exhausted: bool
    preprocessed: bool

    def serves(self, limit: int | None) -> bool:
        """Whether this head is the whole page of ``limit`` answers (all
        if ``None``), rather than a stretch a live job must continue."""
        return self.exhausted or (limit is not None and len(self.results) >= limit)


def merge_prefix(
    record: AnswerPrefix | None,
    *,
    fingerprint: str,
    cost_spec: str,
    preprocessed: bool,
    start: int,
    answers: tuple[CachedAnswer, ...],
    end_checkpoint: bytes,
    exhausted: bool,
) -> AnswerPrefix | None:
    """Fold one enumeration run into a record; ``None`` = nothing to store.

    The run enumerated ``answers`` starting at absolute position
    ``start`` and paused (or finished) with ``end_checkpoint`` at
    ``start + len(answers)``.  Gapped runs (``start`` beyond the stored
    prefix) are dropped; runs inside the stored prefix only contribute
    their end checkpoint (making that interior position servable).
    """
    end = start + len(answers)
    if record is None:
        if start != 0 or end > MAX_PREFIX:
            return None
        return AnswerPrefix(
            fingerprint=fingerprint,
            cost_spec=cost_spec,
            answers=tuple(answers),
            checkpoints={end: end_checkpoint},
            exhausted=exhausted,
            preprocessed=preprocessed,
        )
    if record.fingerprint != fingerprint or record.cost_spec != cost_spec:
        return None
    n = len(record.answers)
    if start > n or end > MAX_PREFIX:
        return None
    if end <= n:
        # Fully inside the stored prefix: learn the interior frontier.
        if end in record.checkpoints and not (exhausted and not record.exhausted):
            return None
        checkpoints = dict(record.checkpoints)
        checkpoints.setdefault(end, end_checkpoint)
        return replace(
            record,
            checkpoints=checkpoints,
            exhausted=record.exhausted or exhausted,
        )
    combined = record.answers[:start] + tuple(answers)
    checkpoints = dict(record.checkpoints)
    checkpoints[end] = end_checkpoint
    return replace(
        record,
        answers=combined,
        checkpoints=checkpoints,
        exhausted=record.exhausted or exhausted,
        preprocessed=record.preprocessed or preprocessed,
    )


def preprocess_applies_for(cost_spec: str, preprocess: bool | None) -> bool:
    """The *requested* preprocess mode folded into the answers key.

    Computable without building a plan (so the scheduler can probe the
    cache before any session exists) and identical to the session-side
    computation: preprocessing is requested (default on) AND the cost
    has a registered composition.  Whether the plan turns out trivial
    does not change the key — the record's ``preprocessed`` field holds
    the actual pipeline for probe-time filtering.
    """
    if preprocess is not None and not preprocess:
        return False
    return composition_for(cost_spec) is not None


class AnswerCache:
    """The answers tier as seen by one request.

    :meth:`for_request` serves a fresh request and
    :meth:`for_checkpoint` a token resume.  ``applies`` is the requested
    preprocess mode (:func:`preprocess_applies_for`) and ``composed``
    pins the actual pipeline a record must have been produced by
    (``None`` = the record's plan decides).
    """

    def __init__(
        self,
        store,
        fingerprint: str,
        cost_spec: str,
        width_bound: int | None,
        *,
        applies: bool,
        composed: bool | None = None,
    ) -> None:
        self._store = store
        self.fingerprint = fingerprint
        self.cost_spec = cost_spec

        def key(preprocess: bool) -> str:
            return answers_key(fingerprint, cost_spec, width_bound, preprocess)

        # ``(key, require_preprocessed)`` probes, in order; a miss
        # publishes under the first.  A non-preprocessing request may
        # replay a record written under the preprocessing key if that
        # record's plan turned out trivial (the identical direct
        # sequence); the reverse is never safe.
        if applies:
            self._probes = ((key(True), composed),)
        else:
            self._probes = ((key(False), False), (key(True), False))

    @classmethod
    def for_request(
        cls,
        store,
        fingerprint: str,
        cost,
        width_bound: int | None,
        preprocess: bool | None,
    ) -> "AnswerCache | None":
        """The cache a fresh request reads and extends.

        ``preprocess`` is the request's effective flag (``None`` = on).
        ``None`` when there is no store, or the cost is not a registry
        name.
        """
        if store is None or not isinstance(cost, str):
            return None
        return cls(
            store,
            fingerprint,
            cost,
            width_bound,
            applies=preprocess_applies_for(cost, preprocess),
        )

    @classmethod
    def for_checkpoint(cls, store, checkpoint) -> "AnswerCache | None":
        """The cache a token resume reads and extends.

        ``checkpoint`` is a checkpoint of either kind or a token's
        :class:`~repro.api.checkpoint.TokenHeader`; its kind fixes the
        pipeline.  ``None`` when there is no store, or the checkpoint
        carries no cost registry name.
        """
        if store is None or checkpoint.cost_spec is None:
            return None
        composed = checkpoint.composed
        return cls(
            store,
            checkpoint.fingerprint,
            checkpoint.cost_spec,
            checkpoint.width_bound,
            applies=composed,
            composed=composed,
        )

    def _probe(self) -> tuple[str, AnswerPrefix | None]:
        """``(key, record)`` of the first acceptable probe, else
        ``(first probe key, None)``."""
        for key, require in self._probes:
            record = self._store.get("answers", key)
            if (
                isinstance(record, AnswerPrefix)
                and record.version == ANSWERS_VERSION
                and (require is None or record.preprocessed == require)
            ):
                return key, record
        return self._probes[0][0], None

    def load(self) -> AnswerPrefix | None:
        """The stored record for this request, or ``None``."""
        return self._probe()[1]

    def replay(
        self,
        record: AnswerPrefix | None,
        graph,
        start: int,
        limit: int | None,
    ) -> AnswerPage | None:
        """The longest head of the page of ``limit`` answers (all if
        ``None``) from ``start`` that ``record`` can serve, rebuilt; or
        ``None``.

        A record that covers the page serves all of it.  Otherwise the
        head ends at the last stored checkpoint inside the page, so the
        rest can run live from there (:meth:`AnswerPage.serves` tells
        the two apart).  ``graph`` is the graph the rebuilt
        triangulations belong to, or a zero-argument callable returning
        it, called only on a hit.
        """
        if record is None:
            return None
        n = len(record.answers)
        end = n if limit is None else min(start + limit, n)
        if not record.covers(start, limit):
            end = max(
                (p for p in record.checkpoints if start < p <= end),
                default=None,
            )
            if end is None:
                return None
        if callable(graph):
            graph = graph()
        results = tuple(
            RankedResult(
                triangulation=Triangulation(graph, answer.bags, answer.cost),
                rank=rank,
                elapsed_seconds=0.0,
                include=answer.include,
                exclude=answer.exclude,
            )
            for rank, answer in enumerate(record.answers[start:end], start)
        )
        return AnswerPage(
            results,
            end,
            record.checkpoints[end],
            record.exhausted and end == n,
            record.preprocessed,
        )

    def publish(
        self,
        start: int,
        results,
        checkpoint: bytes,
        *,
        exhausted: bool,
        preprocessed: bool,
    ) -> None:
        """Merge a live run back into the record.

        The run emitted ``results`` from absolute position ``start`` and
        paused (or finished) at the serialized ``checkpoint``.  The
        record is re-read here, not reused from :meth:`load`: another
        writer may have stored a longer prefix while the run was live.
        """
        answers = tuple(
            CachedAnswer(r.cost, r.triangulation.bags, r.include, r.exclude)
            for r in results
        )
        key, record = self._probe()
        if record is None and not answers:
            return  # an empty fresh record stores nothing servable
        merged = merge_prefix(
            record,
            fingerprint=self.fingerprint,
            cost_spec=self.cost_spec,
            preprocessed=preprocessed,
            start=start,
            answers=answers,
            end_checkpoint=checkpoint,
            exhausted=exhausted,
        )
        if merged is not None:
            self._store.put("answers", key, merged)
