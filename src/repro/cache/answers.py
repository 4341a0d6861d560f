"""The ``answers`` artifact kind: cached ranked answer prefixes.

The ranked-enumeration guarantee makes the top-k answer sequence for a
(fingerprint, cost spec, kernel, width bound, preprocess mode) key a
pure value: the same request always yields the same triangulations in
the same order.  This module stores that value — the first ``k``
answers plus the frontier checkpoint *at* position ``k`` — so repeat
requests replay from disk and longer requests resume from the stored
frontier instead of re-running the Lawler–Murty loop from rank 0.

Design notes
------------
* Answers are stored as :class:`CachedAnswer` rows (cost, bags,
  constraint pair), **not** as rendered frames.  Serving rebuilds a
  :class:`~repro.core.ranked.RankedResult` and derives the frame via
  :func:`repro.service.protocol.answer_frame`, which is a pure function
  of (cost, bags, rank) — so served bytes are identical to live
  enumeration by construction, without pinning pickle byte layouts.
* ``checkpoints`` maps *answer positions* to serialized checkpoints
  (``StreamCheckpoint``/``ComposedCheckpoint`` ``to_bytes()``).  A
  record always holds a checkpoint at ``len(answers)`` — including an
  empty-frontier one when the stream is exhausted — so every replay can
  hand back a resumable (or terminal) checkpoint, exactly like a live
  collect.  Interior positions accrue as requests with smaller ``k``
  run live or replay: each stored position becomes servable later.
* ``merge_prefix`` only ever *extends* a record (or adds interior
  checkpoints); it never shrinks a longer prefix, and it refuses gaps —
  a run must start at a position the record already covers.
* Eviction: one record per key, LRU'd by the store like any other kind;
  extension rewrites the row, which also bumps recency.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from ..core.mintriang import Triangulation
from ..core.ranked import RankedResult
from ..graphs.graph import Graph

__all__ = [
    "ANSWERS_VERSION",
    "DEFAULT_MAX_PREFIX",
    "AnswerPrefix",
    "CachedAnswer",
    "cached_from_result",
    "candidate_keys",
    "load_prefix",
    "max_prefix_answers",
    "merge_prefix",
    "preprocess_applies_for",
    "result_from_cached",
]

#: Version folded into the artifact key (and stored on the record):
#: bump on any change to the record layout or replay semantics.
ANSWERS_VERSION = 1

#: Longest prefix a single record will grow to.  Beyond this, requests
#: fall through to live enumeration (the frontier at the cap is still
#: stored, so serving the capped prefix stays a disk read).
DEFAULT_MAX_PREFIX = 512


def max_prefix_answers() -> int:
    """The prefix cap, overridable via ``REPRO_CACHE_MAX_PREFIX``."""
    raw = os.environ.get("REPRO_CACHE_MAX_PREFIX", "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_PREFIX
    return value if value > 0 else DEFAULT_MAX_PREFIX


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
        at the reply position (or the sequence provably ends first).
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

    def page(
        self, start: int, limit: int | None
    ) -> tuple[tuple[CachedAnswer, ...], int, bytes | None, bool]:
        """Slice the served answers for a covered request.

        Returns ``(served, end, checkpoint_bytes, exhausted_here)``
        where ``end`` is the absolute position after the served slice
        and ``exhausted_here`` is whether the reply terminates the
        sequence (no further answers exist).
        """
        n = len(self.answers)
        end = n if limit is None else min(start + limit, n)
        served = self.answers[start:end]
        exhausted_here = self.exhausted and (limit is None or start + limit >= n)
        return served, end, self.checkpoints.get(end), exhausted_here


def cached_from_result(result: RankedResult) -> CachedAnswer:
    """Strip a live result down to its cacheable core."""
    return CachedAnswer(
        cost=result.triangulation.cost,
        bags=result.triangulation.bags,
        include=result.include,
        exclude=result.exclude,
    )


def result_from_cached(
    answer: CachedAnswer, graph: Graph, rank: int
) -> RankedResult:
    """Rebuild a replayed result; timing is 0.0 by definition."""
    return RankedResult(
        triangulation=Triangulation(graph, answer.bags, answer.cost),
        rank=rank,
        elapsed_seconds=0.0,
        include=answer.include,
        exclude=answer.exclude,
    )


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
    max_answers: int | None = None,
) -> AnswerPrefix | None:
    """Fold one enumeration run into a record; ``None`` = nothing to store.

    The run enumerated ``answers`` starting at absolute position
    ``start`` and paused (or finished) with ``end_checkpoint`` at
    ``start + len(answers)``.  Gapped runs (``start`` beyond the stored
    prefix) are dropped; runs inside the stored prefix only contribute
    their end checkpoint (making that interior position servable).
    """
    cap = max_prefix_answers() if max_answers is None else max_answers
    end = start + len(answers)
    if record is None:
        if start != 0 or end > cap:
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
    if start > n or end > cap:
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
    from ..preprocess.recompose import composition_for

    return composition_for(cost_spec) is not None


def candidate_keys(
    *,
    fingerprint: str,
    cost_spec: str,
    width_bound: int | None,
    kernel: str,
    applies: bool | None,
    composed: bool | None = None,
) -> tuple[tuple[str, bool | None], ...]:
    """Key probes for a request, as ``(key, require_preprocessed)`` pairs.

    ``require_preprocessed`` filters a loaded record by its *actual*
    pipeline (``None`` = accept either).  A non-preprocessing request
    may still replay a record written under the preprocessing key if
    that record's plan turned out trivial (identical direct sequence);
    the reverse is never safe.  Token resumes pin the pipeline via the
    checkpoint type (``composed``).
    """
    from .store import answers_key

    def key(flag: bool) -> str:
        return answers_key(fingerprint, cost_spec, width_bound, kernel, flag)

    if composed is not None:
        # Token resume: the checkpoint type fixes the actual pipeline.
        if composed:
            return ((key(True), True),)
        return ((key(False), False), (key(True), False))
    if applies:
        return ((key(True), None),)
    return ((key(False), False), (key(True), False))


def load_prefix(
    store,
    probes: tuple[tuple[str, bool | None], ...],
) -> tuple[str, AnswerPrefix | None]:
    """Find the first acceptable record among the key probes.

    Returns ``(key, record)``; when every probe misses, ``key`` is the
    primary (first) probe key, which is where a later publish lands.
    """
    primary = probes[0][0]
    for key, require in probes:
        record = store.get("answers", key)
        if record is None:
            continue
        if not isinstance(record, AnswerPrefix):
            continue
        if record.version != ANSWERS_VERSION:
            continue
        if require is not None and record.preprocessed != require:
            continue
        return key, record
    return primary, None
