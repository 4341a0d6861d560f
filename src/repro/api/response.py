"""Typed response objects for the session layer.

Every session call returns an :class:`EnumerationResponse`: the answers,
an :class:`EnumerationStats` block (timing, expansion counts, cache
provenance — the quantities behind the paper's ``init`` / ``delay``
columns), and, for ranked mode, the checkpoint from which the sequence
continues.  The stats block is a page's one terminal record: the
service renders its terminal frame from the same record
(:func:`repro.service.protocol.terminal_frame`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from ..core.mintriang import Triangulation
from .checkpoint import StreamCheckpoint

__all__ = ["EnumerationStats", "EnumerationResponse"]


@dataclass(frozen=True)
class EnumerationStats:
    """The terminal record of one page: how it ended and what it cost.

    :meth:`Job.finish <repro.api.job.Job.finish>` builds it for a live
    page and :func:`~repro.api.job.replayed_stats` for a page the
    answers tier serves whole; the library returns it as
    :attr:`EnumerationResponse.stats` and the service renders it as the
    page's terminal frame.

    Attributes
    ----------
    fingerprint:
        Content fingerprint of the graph (the context cache key).
    mode:
        Request mode (``"ranked"`` / ``"diverse"`` / ``"decompositions"``).
    cost_spec:
        Cost registry name, or ``None`` when a cost object was passed.
    emitted:
        Answers returned in :attr:`EnumerationResponse.results`.
    expansions:
        Constrained ``MinTriang⟨κ[I,X]⟩`` DP runs executed — the
        Lawler–Murty expansion work this request paid for.  A child the
        ranked loop's crossing test rules out runs no DP and is not
        counted.
    init_seconds:
        Wall-clock cost of the shared initialization behind this request
        (0-ish when the context came from the session cache).
    context_cached:
        Whether the triangulation context was reused from the session's
        LRU cache rather than built for this request.
    elapsed_seconds:
        Seconds on :func:`time.monotonic` from the job's open to this
        record: opening the stream (a context build on a miss) and
        collecting the answers, not a service job's wait for its first
        slot, nor a cached context's original build time.
    engine:
        Which path served the request: ``"serial"`` (a live direct
        stream), ``"composed"`` (the preprocessing pipeline),
        ``"cache"`` (replayed from the answer-prefix cache) or
        ``"none"`` (no stream ran: a zero-answer request, or nothing
        was left to enumerate when the stream opened).
    exhausted:
        Whether the enumeration space was fully emitted.
    terminal:
        How the page ended: ``"stats"`` (the results or the answer limit
        ran out), ``"deadline"`` (the library's ``time_budget`` or the
        service's ``deadline`` passed) or ``"cancelled"`` (the job's
        cancel event was set).  The service's terminal frame has this
        type.
    next_rank:
        The rank a ranked page continues at, set even when the page is
        exhausted; ``None`` in the other modes and for a fresh request
        for zero answers, which opens no stream.
    preprocessed:
        Whether the request was served by the preprocessing pipeline
        (safe reductions + clique-separator atoms with ranked
        recomposition) rather than the direct enumerator.  The answer
        stream is equivalent either way; this records which machinery
        produced it (``init_seconds`` then sums over the atom
        initializations).
    kernel:
        The graph kernel the serving session builds contexts with,
        ``"bitset"`` or ``"sets"``.
    """

    fingerprint: str
    mode: str
    cost_spec: str | None
    emitted: int
    expansions: int
    init_seconds: float
    context_cached: bool
    elapsed_seconds: float
    engine: str
    exhausted: bool
    terminal: str = "stats"
    next_rank: int | None = None
    preprocessed: bool = False
    kernel: str = ""

    @property
    def timed_out(self) -> bool:
        """Whether the page stopped on its deadline."""
        return self.terminal == "deadline"


@dataclass(frozen=True)
class EnumerationResponse:
    """Results plus stats plus (in ranked mode) a resume checkpoint.

    ``results`` holds :class:`~repro.core.ranked.RankedResult` objects in
    ranked mode, :class:`~repro.core.mintriang.Triangulation` objects in
    diverse mode, and :class:`~repro.core.proper.RankedDecomposition`
    objects in decompositions mode.
    """

    results: tuple
    stats: EnumerationStats
    checkpoint: StreamCheckpoint | None = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator:
        return iter(self.results)

    def __bool__(self) -> bool:
        return bool(self.results)

    @property
    def exhausted(self) -> bool:
        """Whether there is nothing left to resume."""
        return self.stats.exhausted

    @property
    def triangulations(self) -> tuple[Triangulation, ...]:
        """The results as plain triangulations, whatever the mode."""
        out = []
        for r in self.results:
            out.append(r if isinstance(r, Triangulation) else r.triangulation)
        return tuple(out)
