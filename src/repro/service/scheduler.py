"""Fair-share scheduling of enumeration jobs over a shared session pool.

The scheduler is the concurrency heart of the service: it admits typed
jobs (:class:`~repro.service.protocol.ServiceRequest` — ``enumerate``,
``top``, ``diverse``, ``decompositions``), opens each one as a ranked
stream over a shared per-kernel :class:`~repro.api.Session`, and runs
the streams in **slices** on a bounded thread pool.  One slice pulls at
most ``slice_answers`` results before giving the worker slot back, so a
job over an expensive graph interleaves with — rather than starves —
every cheap job admitted alongside it.  Fairness falls out of the slot
semaphore's FIFO wakeups: after each slice a job goes to the back of
the line.

Per-job controls, all cooperative (checked between answers, never by
killing a thread):

* ``deadline``      — wall-clock seconds from admission; on expiry the
  job ends with a ``deadline`` frame carrying a resume token;
* ``answer_budget`` / ``k`` — caps on streamed answers; the terminal
  ``stats`` frame carries the token for the remainder;
* :meth:`EnumerationScheduler.cancel` — sets the job's cancel event;
  the running slice notices at the next answer boundary, emits a
  ``cancelled`` frame (with a token when the stream is pausable) and
  releases the slot.  This is exactly what a client disconnect triggers.

Emission-order guarantee: each job owns its stream exclusively, slices
of one job never overlap, and the frames of consecutive slices are
concatenated in order — so the answer frames of a job are bit-identical
to a serial ``Session.stream`` run of the same request, no matter how
many jobs run concurrently.  Sessions are shared across jobs (that is
the point: one context build serves every client asking about the same
graph); :class:`~repro.api.Session` is lock-protected for exactly this
slice-reentrant use.

*Where* a slice executes is pluggable (:class:`ExecutionBackend`):

* :class:`InProcessBackend` (default) — slices run on this process's
  executor threads over a shared per-kernel session pool.  All slices
  contend on one GIL; this is the reference backend, kept as the
  differential oracle.
* ``backend="process"`` — slices are dispatched whole (one IPC round
  trip per answer batch) to a pool of long-lived worker processes, each
  owning warm kernel-keyed sessions, with graph-fingerprint affinity
  routing and crash re-dispatch (:mod:`repro.service.workers`).  The
  frames a job streams are bit-identical either way.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from abc import ABC, abstractmethod
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

from ..api import (
    ComposedRankedStream,
    Session,
    graph_fingerprint,
    load_checkpoint,
)
from ..api.checkpoint import read_header
from ..api.session import _diverse_selection, _expand_decompositions
from ..cache.answers import MAX_PREFIX, AnswerCache, preprocess_applies_for
from ..graphs.kernels import (
    available_kernels,
    registered_kernels,
    resolve_kernel,
)
from .protocol import (
    ProtocolError,
    ServiceRequest,
    TERMINAL_TYPES,
    TokenAuthError,
    answer_frame,
    encode_token,
    resolve_token_key,
    sign_token,
    verify_token,
)

__all__ = [
    "EnumerationScheduler",
    "ExecutionBackend",
    "InProcessBackend",
    "ScheduledJob",
    "DEFAULT_SLICE_ANSWERS",
    "aggregate_disk_cache",
]

#: Answers one slice may stream before yielding its worker slot.
DEFAULT_SLICE_ANSWERS = 4

#: Upper bounds (seconds) of the slice-latency histogram buckets.  A
#: slice is one executor round trip — context builds land in the tail
#: buckets, warm-stream batches in the head.
SLICE_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class _SliceHistogram:
    """Fixed-bucket latency histogram (Prometheus-shaped counters).

    Mutated only from the scheduler's event loop (after each awaited
    slice), so plain ints suffice; snapshots hand out copies.
    """

    def __init__(self, bounds: tuple[float, ...] = SLICE_LATENCY_BUCKETS):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += seconds
        self.count += 1

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class ScheduledJob:
    """One admitted job: a frame queue plus its cooperative-cancel state.

    Consumers read :attr:`frames` until a terminal frame (``type`` in
    :data:`~repro.service.protocol.TERMINAL_TYPES`) arrives; the
    scheduler guarantees exactly one terminal frame per job, always
    delivered last.  The queue is *bounded* (``max_pending``): a job
    whose consumer reads slowly stops slicing once the buffer fills —
    backpressure, not unbounded server-side buffering — and resumes as
    the consumer catches up.
    """

    def __init__(
        self, job_id: int, request: ServiceRequest, max_pending: int = 64
    ) -> None:
        self.id = job_id
        self.request = request
        self.frames: asyncio.Queue[dict] = asyncio.Queue(maxsize=max_pending)
        self.status = "pending"  # -> running -> <terminal frame type>
        self.emitted = 0
        self._cancel = threading.Event()
        self._cancel_callbacks: list[Callable[[], None]] = []
        self._task: asyncio.Task | None = None

    @property
    def cancelled(self) -> bool:
        """Whether a cancel was requested (not yet necessarily honored)."""
        return self._cancel.is_set()

    def add_cancel_callback(self, callback: Callable[[], None]) -> None:
        """Register a hook run when cancellation is requested.

        Remote backends use this to forward the cancel to the worker
        process holding the job, so the in-flight slice stops at its
        next answer boundary instead of running to the slice cap.  A
        callback registered after the cancel already happened fires
        immediately.
        """
        self._cancel_callbacks.append(callback)
        if self._cancel.is_set():
            callback()

    def request_cancel(self) -> None:
        """Set the cancel flag and notify any registered backend hooks."""
        self._cancel.set()
        for callback in self._cancel_callbacks:
            try:
                callback()
            except Exception:
                pass  # a dead worker pipe must not break cancellation

    @property
    def finished(self) -> bool:
        """Whether the job's terminal frame has been produced."""
        return self.status in TERMINAL_TYPES

    async def next_frame(self) -> dict:
        """The next frame of this job (blocks until one is available)."""
        return await self.frames.get()

    async def drain(self) -> list[dict]:
        """Consume and return all remaining frames through the terminal one."""
        out = []
        while True:
            frame = await self.frames.get()
            out.append(frame)
            if frame["type"] in TERMINAL_TYPES:
                return out

    async def wait(self) -> None:
        """Block until the job's runner task has fully wound down."""
        if self._task is not None:
            await asyncio.shield(self._task)


class _JobRunner:
    """The synchronous half of one job: owns the stream, runs in slices.

    Never touched by more than one executor thread at a time (the
    scheduler serializes a job's slices), so it needs no locking of its
    own.  All blocking work — opening the stream (context build) and
    pulling answers — happens inside :meth:`slice_`, on an executor
    thread, never on the event loop.
    """

    def __init__(
        self,
        session: Session,
        request: ServiceRequest,
        cancel: threading.Event,
        token_key: bytes,
        *,
        resume_payload: bytes | None = None,
        base_emitted: int = 0,
        skip_answers: int = 0,
        deadline_override: float | None = None,
    ) -> None:
        self._session = session
        self._request = request
        self._cancel = cancel
        self._token_key = token_key
        self._stream = None  # the pausable RankedStream, when op allows
        self._source = None  # the ranked stream powering ANY op (stats)
        self._iterator = None
        self._opened = False
        # Crash re-dispatch state (multi-process backend only): a trusted
        # internal checkpoint to resume from, the answers already
        # delivered before the crash (the counters continue there so
        # k/answer-budget accounting survives re-dispatch), and — for
        # ops without a pausable stream — how many deterministic answers
        # to replay silently before streaming fresh ones.
        self._resume_payload = resume_payload
        self._emitted = base_emitted
        self._skip = skip_answers
        # Deadlines (and elapsed reporting) are measured on
        # time.monotonic(): an NTP step or VM clock correction must not
        # prematurely expire — or immortalize — a job.
        self._started = time.monotonic()
        deadline = (
            deadline_override
            if deadline_override is not None
            else request.deadline
        )
        self._deadline_at = (
            self._started + deadline if deadline is not None else None
        )
        # Answer-prefix write-back state (pausable enumerate/top streams
        # with a store only): the request's answers tier, the absolute
        # rank the collection starts at, and the results gathered so far
        # (None = disabled: over the cap, or nothing to publish to).
        self._answers: AnswerCache | None = None
        self._publish_base = 0
        self._collected: "list | None" = None

    # -- opening -------------------------------------------------------
    def _open(self) -> None:
        request = self._request
        checkpoint = None
        if self._resume_payload is not None:
            # Internal re-dispatch after a worker crash: the payload is
            # a checkpoint this service minted and held in memory, never
            # wire input, so it loads without the HMAC gate.
            try:
                checkpoint = load_checkpoint(self._resume_payload)
            except Exception as exc:  # server fault, not the client's
                raise RuntimeError(
                    f"internal re-dispatch checkpoint failed to load: {exc}"
                ) from exc
            stream = self._session.resume_stream(checkpoint)
            self._stream = stream
            self._source = stream
            self._iterator = stream
        elif request.token is not None:
            # Authenticate before decoding: only tokens this service
            # minted (under its key) are resumed.
            payload = verify_token(self._token_key, request.token)
            try:
                checkpoint = load_checkpoint(payload)
            except Exception as exc:
                raise ProtocolError(f"invalid resume token: {exc}") from None
            stream = self._session.resume_stream(checkpoint)
            self._stream = stream
            self._source = stream
            self._iterator = stream
        elif request.op in ("enumerate", "top"):
            stream = self._session.stream(
                request.graph,
                request.cost,
                width_bound=request.width_bound,
                preprocess=request.preprocess,
            )
            self._stream = stream
            self._source = stream
            self._iterator = stream
        elif request.op == "diverse":
            self._iterator = self._diverse_iterator()
        else:  # decompositions
            self._iterator = self._decomposition_iterator()
        store = self._session.store
        if self._stream is not None and store is not None:
            if checkpoint is not None:
                self._answers = AnswerCache.for_checkpoint(store, checkpoint)
            else:
                self._answers = AnswerCache(
                    store,
                    self._stream.fingerprint,
                    request.cost,
                    request.width_bound,
                    applies=preprocess_applies_for(
                        request.cost, request.preprocess
                    ),
                )
            if self._answers is not None:
                self._publish_base = self._stream.next_rank
                self._collected = []
        self._opened = True

    def _diverse_iterator(self):
        """Session's greedy diverse selection, sliceable answer by answer.

        Delegates to :func:`repro.api.session._diverse_selection` — the
        single implementation behind :meth:`Session.diverse` — wrapped
        as a generator so the scheduler can pause it between answers.
        """
        request = self._request
        limit = request.result_limit  # min(k, answer_budget), like Session
        assert limit is not None
        stream = self._session.stream(
            request.graph,
            request.cost,
            width_bound=request.width_bound,
            preprocess=request.preprocess,
        )
        self._source = stream
        try:
            # should_stop is polled once per *scanned* candidate, so a
            # cancel/deadline lands mid-scan instead of after up to
            # scan_limit expansions; slice_'s StopIteration handler then
            # re-checks which terminal frame the early exit deserves.
            yield from _diverse_selection(
                stream,
                limit,
                request.min_distance,
                request.scan_limit,
                should_stop=self._interrupted,
            )
        finally:
            stream.close()

    def _decomposition_iterator(self):
        """Proposition 6.1 expansion, with the source stream retained
        so the terminal stats can report its true exhaustion state."""
        request = self._request
        stream = self._session.stream(
            request.graph,
            request.cost,
            width_bound=request.width_bound,
            preprocess=request.preprocess,
        )
        self._source = stream
        try:
            yield from _expand_decompositions(
                stream, request.per_triangulation
            )
        finally:
            stream.close()

    def _interrupted(self) -> bool:
        """Whether cancellation or the deadline should stop work now."""
        return self._cancel.is_set() or (
            self._deadline_at is not None
            and time.monotonic() > self._deadline_at
        )

    # -- answer-prefix write-back --------------------------------------
    def _collect_answer(self, result) -> None:
        """Accumulate one emitted answer for the prefix write-back.

        Disabled (for the rest of the job) once the prefix would exceed
        the cap: a partial stretch cannot be published, because the
        terminal checkpoint sits at the *stream's* position, not the
        truncated collection's.
        """
        if self._collected is None:
            return
        self._collected.append(result)
        if self._publish_base + len(self._collected) > MAX_PREFIX:
            self._collected = None

    def _publish_prefix(self) -> None:
        """Fold this job's enumerated stretch into the answers record.

        Called at every terminal that leaves the stream in a
        checkpoint-consistent state (stats, cancelled, deadline).
        Best-effort: a cache failure must never break the job that
        already produced its frames.
        """
        stream, collected = self._stream, self._collected
        if stream is None or collected is None:
            return
        if not collected and self._publish_base == 0:
            return
        try:
            self._answers.publish(
                self._publish_base,
                collected,
                stream.checkpoint().to_bytes(),
                exhausted=stream.exhausted,
                preprocessed=isinstance(stream, ComposedRankedStream),
            )
        except Exception:
            pass

    # -- checkpoints ---------------------------------------------------
    def _token_fields(self) -> dict:
        """``checkpoint``/``next_rank`` fields for a pausable stream.

        A drained stream gets no token (there is nothing to resume;
        the README protocol table promises exactly this), matching the
        non-pausable ops.
        """
        if self._stream is None:
            return {"next_rank": None, "checkpoint": None}
        if self._stream.exhausted:
            return {"next_rank": self._stream.next_rank, "checkpoint": None}
        token = sign_token(self._token_key, self._stream.checkpoint().to_bytes())
        return {
            "next_rank": self._stream.next_rank,
            "checkpoint": encode_token(token),
        }

    def _stats_frame(self, drained: bool) -> dict:
        """The terminal ``stats`` frame.

        All measurements come from the *source* ranked stream (the one
        powering the op, whatever the op), mirroring what the in-process
        ``Session`` reports for the same request: ``exhausted`` is the
        source frontier's state — for decompositions additionally
        requiring the expansion itself to have drained — never a guess
        from the answer cap.
        """
        source = self._source
        if source is None:
            exhausted = drained
        elif self._request.op == "decompositions":
            exhausted = source.exhausted and drained
        else:
            exhausted = source.exhausted
        frame = {
            "type": "stats",
            "emitted": self._emitted,
            "expansions": source.expansions if source is not None else 0,
            "exhausted": exhausted,
            "elapsed_seconds": round(time.monotonic() - self._started, 6),
            "engine": source.engine_name if source is not None else "none",
            "preprocessed": (
                source is not None and source.engine_name == "composed"
            ),
        }
        frame.update(self._token_fields())
        return frame

    # -- the slice -----------------------------------------------------
    def slice_(self, max_answers: int) -> tuple[list[dict], bool]:
        """Run one slice; returns ``(frames, finished)``.

        Streams up to ``max_answers`` further answers, honoring — in
        priority order, checked between answers — cancellation, the
        deadline, and the answer cap.  When it reports finished, the
        last frame is the job's single terminal frame and the stream is
        closed.
        """
        frames: list[dict] = []
        try:
            if not self._opened:
                # Failures while opening — unknown costs, disconnected
                # graphs, bad tokens — are the client's fault; anything
                # thrown later, mid-enumeration, is a server fault and
                # must not masquerade as one.
                try:
                    self._open()
                except ProtocolError:
                    raise
                except (ValueError, KeyError) as exc:
                    raise ProtocolError(str(exc)) from exc
            while self._skip > 0:
                # Crash replay for ops without a pausable stream: the
                # enumeration is deterministic, so re-running it and
                # discarding the answers the client already has restores
                # the exact position.  An interruption mid-replay gets no
                # resume token — a token minted here would sit *before*
                # answers the client already received and replay them.
                if self._interrupted():
                    kind = "cancelled" if self._cancel.is_set() else "deadline"
                    frames.append({"type": kind, "emitted": self._emitted,
                                   "next_rank": None, "checkpoint": None})
                    self.close()
                    return frames, True
                try:
                    next(self._iterator)
                except StopIteration:
                    frames.append(self._stats_frame(drained=True))
                    self.close()
                    return frames, True
                self._skip -= 1
            limit = self._request.result_limit
            for _ in range(max_answers):
                if self._cancel.is_set():
                    frames.append({"type": "cancelled", "emitted": self._emitted,
                                   **self._token_fields()})
                    self._publish_prefix()
                    self.close()
                    return frames, True
                if (
                    self._deadline_at is not None
                    and time.monotonic() > self._deadline_at
                ):
                    frames.append({"type": "deadline", "emitted": self._emitted,
                                   **self._token_fields()})
                    self._publish_prefix()
                    self.close()
                    return frames, True
                if limit is not None and self._emitted >= limit:
                    frames.append(self._stats_frame(drained=False))
                    self._publish_prefix()
                    self.close()
                    return frames, True
                try:
                    result = next(self._iterator)
                except StopIteration:
                    # An early exit forced by should_stop mid-scan must
                    # surface as the interruption it was, not as normal
                    # completion.
                    if self._cancel.is_set():
                        frames.append({"type": "cancelled",
                                       "emitted": self._emitted,
                                       **self._token_fields()})
                    elif (
                        self._deadline_at is not None
                        and time.monotonic() > self._deadline_at
                    ):
                        frames.append({"type": "deadline",
                                       "emitted": self._emitted,
                                       **self._token_fields()})
                    else:
                        frames.append(self._stats_frame(drained=True))
                    self._publish_prefix()
                    self.close()
                    return frames, True
                if self._request.op == "diverse":
                    frame = answer_frame(result, rank=self._emitted)
                else:
                    frame = answer_frame(result)
                self._collect_answer(result)
                self._emitted += 1
                frames.append(frame)
            return frames, False
        except Exception:
            self.close()
            raise

    def internal_state(self) -> tuple[bytes | None, int]:
        """``(checkpoint bytes, answers delivered)`` for crash re-dispatch.

        Captured by the worker backend after every unfinished slice (the
        protocol's *checkpoint frame*): pausable streams serialize their
        frontier, so a re-dispatched job resumes exactly where the last
        acknowledged slice ended; non-pausable ops return ``None`` and
        are re-dispatched as a deterministic replay that skips the
        delivered prefix.
        """
        if self._stream is not None:
            # Serialized even when already exhausted: resuming an
            # exhausted frontier yields the terminal stats frame, which
            # is exactly what re-running the job from scratch must not do.
            return self._stream.checkpoint().to_bytes(), self._emitted
        return None, self._emitted

    def close(self) -> None:
        """Release the stream (idempotent)."""
        iterator, self._iterator = self._iterator, None
        self._stream = None
        if iterator is not None:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


class ExecutionBackend(ABC):
    """Where a job's slices execute.

    The scheduler owns admission, fairness, frame queues and
    cancellation; a backend owns the enumeration itself.  Its runners
    expose the :class:`_JobRunner` surface — ``slice_(max_answers)``
    returning ``(frames, finished)``, plus ``close()`` — and every
    backend must produce bit-identical answer frames for the same
    request (``tests/service/`` holds them to it).
    """

    #: Stable name reported by ``stats`` frames.
    name = "abstract"

    @abstractmethod
    def create_runner(self, job: "ScheduledJob"):
        """A fresh runner for one admitted job (cheap; no blocking work)."""

    def worker_stats(self) -> list[dict]:
        """Per-worker introspection rows for the ``stats`` job kind."""
        return []

    def probe(self) -> bool:
        """A liveness round trip (``/health``): can this backend run a
        slice right now?  In-process execution is alive by definition;
        remote backends ping an actual worker seat."""
        return True

    def telemetry(self) -> dict:
        """Cheap backend counters for a metrics scrape (no round trips)."""
        return {}

    def close(self) -> None:
        """Release worker resources (processes, sessions)."""


class InProcessBackend(ExecutionBackend):
    """Slices run on the scheduler's executor threads (the GIL-bound
    reference backend, kept as the differential oracle).

    Sessions are shared across jobs, one per kernel: every client asking
    about the same graph reuses one context build and one prepared DP
    table per cost.
    """

    name = "inprocess"

    def __init__(
        self,
        token_key: bytes,
        session_factory: Callable[[str], Session] | None = None,
        cache_dir: "str | None" = None,
    ) -> None:
        self._token_key = token_key
        self._session_factory = session_factory or (
            lambda kernel: Session(kernel=kernel, cache_dir=cache_dir)
        )
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()

    def session(self, kernel: str = "auto") -> Session:
        """The shared session serving jobs of ``kernel`` (built lazily).

        The pool is keyed by *resolved* kernel name, so ``"auto"`` and
        the concrete kernel it resolves to share one session.
        """
        name = resolve_kernel(kernel).name
        with self._lock:
            session = self._sessions.get(name)
            if session is None:
                session = self._session_factory(name)
                self._sessions[name] = session
            return session

    def create_runner(self, job: "ScheduledJob") -> _JobRunner:
        return _JobRunner(
            self.session(job.request.kernel),
            job.request,
            job._cancel,
            self._token_key,
        )

    def worker_stats(self) -> list[dict]:
        with self._lock:
            kernels = dict(self._sessions)
        return [
            {
                "worker": 0,
                "pid": os.getpid(),
                "alive": True,
                "active_jobs": None,  # jobs are not pinned in-process
                "sessions": {
                    kernel: {
                        "cache": session.cache_info(),
                        "warm": session.warm_fingerprints(),
                    }
                    for kernel, session in kernels.items()
                },
            }
        ]

    def close(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()


def kernel_registry_stats() -> dict:
    """The kernel registry as an observability payload.

    Served under ``"kernels"`` in the ``stats`` op and echoed by the
    gateway's ``/metrics`` as ``repro_kernel_info``: which kernels this
    server knows and what the ``"auto"`` alias names.
    """
    return {
        "available": list(available_kernels()),
        "auto": resolve_kernel("auto").name,
        "registered": {
            spec.name: {"description": spec.description}
            for spec in registered_kernels()
        },
    }


def aggregate_disk_cache(workers: list[dict], extra: "tuple | list" = ()) -> dict:
    """Fold per-worker disk-cache stats into one fleet-level view.

    The session counters (hits/misses/stores/evictions/corrupt) are per
    store handle, so they sum; ``entries``/``bytes`` describe the one
    shared database every handle points at, so the freshest view wins
    (max) instead of double-counting.  ``extra`` takes additional raw
    store-stats snapshots (the scheduler's own answer-serving handle)
    folded with the same rules.
    """
    kinds: dict[str, dict[str, int]] = {}
    state = {"enabled": False, "path": None}

    def fold(disk: dict) -> None:
        if not disk:
            return
        state["enabled"] = True
        state["path"] = disk.get("path", state["path"])
        for kind, counters in (disk.get("kinds") or {}).items():
            agg = kinds.setdefault(
                kind,
                {
                    "hits": 0,
                    "misses": 0,
                    "stores": 0,
                    "evictions": 0,
                    "corrupt": 0,
                    "entries": 0,
                    "bytes": 0,
                },
            )
            for name in ("hits", "misses", "stores", "evictions", "corrupt"):
                agg[name] += int(counters.get(name, 0))
            for name in ("entries", "bytes"):
                agg[name] = max(agg[name], int(counters.get(name, 0)))

    for row in workers:
        for sess in (row.get("sessions") or {}).values():
            fold((sess.get("cache") or {}).get("disk"))
    for disk in extra:
        fold(disk)
    return {"enabled": state["enabled"], "path": state["path"], "kinds": kinds}


class EnumerationScheduler:
    """Admits jobs and multiplexes their slices over a bounded worker pool.

    Parameters
    ----------
    max_workers:
        Executor threads == concurrently running slices.  Everything
        else — any number of admitted jobs — waits its turn on the slot
        semaphore.
    slice_answers:
        Answers per slice before a job yields its slot.  Smaller values
        trade throughput for fairness (and for cancellation latency —
        cancels and deadlines are noticed at answer boundaries).
    max_pending_frames:
        Bound of each job's frame buffer.  A consumer that falls this
        far behind pauses its job's slicing (backpressure) until it
        catches up; server memory per job is O(bound), never O(answers).
    token_key:
        HMAC key signing every resume token this scheduler mints; only
        tokens that verify under it are ever decoded (the checkpoint
        codec's CRC catches damage, the HMAC catches forgery).
        ``None`` (default) generates a random per-scheduler key, scoping
        tokens to this instance; pass a shared key to make tokens
        portable across a pool or a restart.
    session_factory:
        Builds the shared :class:`~repro.api.Session` for a kernel name;
        one session is created lazily per kernel and reused by every job
        requesting that kernel.  Defaults to ``Session(kernel=...)``.
        In-process backend only (worker processes build their own
        sessions).
    backend:
        Where slices execute: ``"inprocess"`` (default; the reference
        backend and differential oracle), ``"process"`` (long-lived
        worker processes with session affinity,
        :class:`~repro.service.workers.ProcessWorkerBackend`), or a
        ready :class:`ExecutionBackend` instance.
    worker_processes:
        Size of the worker-process pool for ``backend="process"``
        (default: ``max_workers``).  The slot semaphore is widened to
        cover every worker, so the pool is never starved by the slice
        cap.
    cache_dir:
        Directory of the persistent artifact store every backend
        session attaches to (:mod:`repro.cache`): the in-process
        backend's shared sessions and every worker-process seat point
        at the same directory, so one context build or DP fill serves
        the whole fleet and survives restarts.  ``None`` defers to the
        ``REPRO_CACHE_DIR`` environment variable (no store when that is
        unset too).

    The scheduler must be driven from one running asyncio event loop
    (:class:`asyncio.Queue` and the slot semaphore bind to it); the
    blocking enumeration work all happens on the executor threads.
    """

    def __init__(
        self,
        *,
        max_workers: int = 2,
        slice_answers: int = DEFAULT_SLICE_ANSWERS,
        max_pending_frames: int = 64,
        token_key: bytes | None = None,
        session_factory: Callable[[str], Session] | None = None,
        backend: "str | ExecutionBackend | None" = None,
        worker_processes: int | None = None,
        cache_dir: "str | None" = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if slice_answers < 1:
            raise ValueError(f"slice_answers must be >= 1, got {slice_answers}")
        if max_pending_frames < 1:
            raise ValueError(
                f"max_pending_frames must be >= 1, got {max_pending_frames}"
            )
        if worker_processes is not None and worker_processes < 1:
            raise ValueError(
                f"worker_processes must be >= 1, got {worker_processes}"
            )
        self._slice_answers = slice_answers
        self._max_pending = max_pending_frames
        # Explicit key, else the REPRO_TOKEN_SECRET environment secret,
        # else random (tokens then die with this instance).
        self._token_key = resolve_token_key(token_key)
        self._cache_dir = cache_dir
        self._backend = self._make_backend(
            backend, worker_processes or max_workers, session_factory
        )
        # One slot per concurrently running slice; with worker processes
        # the slot count covers the whole pool so no worker idles for
        # lack of a dispatching thread (+1 thread keeps the cheap
        # ``stats`` job kind responsive under full load).
        slots = max_workers
        if isinstance(backend, str) and backend != "inprocess":
            slots = max(max_workers, worker_processes or max_workers)
        self._executor = ThreadPoolExecutor(
            max_workers=slots + 1, thread_name_prefix="repro-service"
        )
        self._slots = asyncio.Semaphore(slots)
        self._slots_total = slots
        self._ids = itertools.count(1)
        self._jobs: dict[int, ScheduledJob] = {}
        self._admitted = 0
        self._admitted_by_op: dict[str, int] = {}
        self._completed = 0
        #: Jobs satisfied entirely from the answer-prefix disk cache —
        #: no executor slot consumed, no backend runner created.
        self._answers_served = 0
        self._slice_hist = _SliceHistogram()
        # The scheduler's own store handle for probing answer prefixes
        # before a job ever reaches the backend (lazy: opening sqlite on
        # the event-loop thread at construction would be rude).
        self._store_lock = threading.Lock()
        self._store_obj = None
        self._store_init = False
        self._closed = False

    def _make_backend(
        self,
        backend: "str | ExecutionBackend | None",
        worker_processes: int,
        session_factory: Callable[[str], Session] | None,
    ) -> ExecutionBackend:
        if isinstance(backend, ExecutionBackend):
            return backend
        if backend is None or backend in ("inprocess", "in-process", "thread"):
            return InProcessBackend(
                self._token_key, session_factory, cache_dir=self._cache_dir
            )
        if backend == "process":
            from .workers import ProcessWorkerBackend

            return ProcessWorkerBackend(
                workers=worker_processes,
                token_key=self._token_key,
                cache_dir=self._cache_dir,
            )
        raise ValueError(
            f"unknown backend {backend!r}; expected 'inprocess' or 'process'"
        )

    # -- sessions ------------------------------------------------------
    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend serving this scheduler's slices."""
        return self._backend

    def session(self, kernel: str = "auto") -> Session:
        """The shared in-process session for ``kernel``.

        Only meaningful for the in-process backend (worker processes
        own their sessions; inspect them through the ``stats`` job kind).
        """
        if not isinstance(self._backend, InProcessBackend):
            raise RuntimeError(
                "session() is an in-process-backend accessor; use the "
                "'stats' job kind to inspect worker sessions"
            )
        return self._backend.session(kernel)

    # -- lifecycle -----------------------------------------------------
    async def submit(self, request: ServiceRequest) -> ScheduledJob:
        """Admit one job; its frames start flowing into ``job.frames``."""
        if self._closed:
            raise RuntimeError("scheduler is closed")
        job = ScheduledJob(next(self._ids), request, self._max_pending)
        self._jobs[job.id] = job
        self._admitted += 1
        self._admitted_by_op[request.op] = (
            self._admitted_by_op.get(request.op, 0) + 1
        )
        job._task = asyncio.create_task(self._run(job))
        return job

    def _store(self):
        """The scheduler's lazily opened artifact store (or ``None``)."""
        if self._store_init:
            return self._store_obj
        with self._store_lock:
            if not self._store_init:
                from ..cache.store import open_store

                try:
                    self._store_obj = open_store(self._cache_dir)
                except Exception:
                    self._store_obj = None
                self._store_init = True
        return self._store_obj

    def _serve_from_answers(self, request: ServiceRequest) -> "list[dict] | None":
        """All frames of a prefix-covered job, straight from disk.

        Returns ``None`` whenever the job cannot be fully satisfied from
        the cached answer prefix — for any reason at all, including
        errors: the live path re-raises token/validation failures with
        their proper error frames, so this probe never converts one into
        a silent miss of a different shape.  Runs on an executor thread.
        """
        try:
            store = self._store()
            if store is None:
                return None
            started = time.monotonic()
            if request.token is not None:
                # The token's header picks the keys; the frontier is
                # left to the job that resumes it on a miss.
                payload = verify_token(self._token_key, request.token)
                header = read_header(payload)
                if header.exhausted:
                    return None
                answers = AnswerCache.for_checkpoint(store, header)
                # Restored only on a hit.
                graph, start = header.restore_graph, header.next_rank
            else:
                graph, start = request.graph, 0
                answers = AnswerCache(
                    store,
                    graph_fingerprint(graph),
                    request.cost,
                    request.width_bound,
                    applies=preprocess_applies_for(
                        request.cost, request.preprocess
                    ),
                )
            if answers is None:
                return None
            page = answers.replay(
                answers.load(), graph, start, request.result_limit
            )
            if page is None:
                return None
            frames = [answer_frame(result) for result in page.results]
            token = None
            if not page.exhausted:
                token = encode_token(sign_token(self._token_key, page.checkpoint))
            frames.append(
                {
                    "type": "stats",
                    "emitted": len(page.results),
                    "expansions": 0,
                    "exhausted": page.exhausted,
                    "elapsed_seconds": round(time.monotonic() - started, 6),
                    "engine": "cache",
                    "preprocessed": page.preprocessed,
                    "next_rank": page.end,
                    "checkpoint": token,
                }
            )
            return frames
        except Exception:
            return None

    async def _run(self, job: ScheduledJob) -> None:
        job.status = "running"
        loop = asyncio.get_running_loop()
        if job.request.op == "stats":
            await self._run_stats(job, loop)
            return
        runner = None
        terminal = "error"
        try:
            if job.request.op in ("enumerate", "top"):
                # Prefix-covered jobs are answered from disk without
                # consuming a slice slot or touching the backend — no
                # worker seat, no executor-slot wait.  (The probe itself
                # runs on the executor's spare thread, like stats.)
                frames = await loop.run_in_executor(
                    self._executor, self._serve_from_answers, job.request
                )
                if frames:
                    self._answers_served += 1
                    for frame in frames:
                        if frame["type"] == "answer":
                            job.emitted += 1
                        else:
                            terminal = frame["type"]
                        await job.frames.put(frame)
                    return
            runner = self._backend.create_runner(job)
            while True:
                async with self._slot():
                    started = time.perf_counter()
                    frames, finished = await loop.run_in_executor(
                        self._executor, runner.slice_, self._slice_answers
                    )
                    self._slice_hist.observe(time.perf_counter() - started)
                for frame in frames:
                    if frame["type"] == "answer":
                        job.emitted += 1
                    else:
                        terminal = frame["type"]
                    # Blocks when the consumer is behind (bounded queue):
                    # the slot is already released, so a slow client
                    # costs buffer space and its own latency, nothing else.
                    await job.frames.put(frame)
                if finished:
                    break
                # Explicit fairness point: even if the semaphore has free
                # slots, let other ready jobs interleave between slices.
                await asyncio.sleep(0)
        except TokenAuthError as exc:
            # Key rotation / restart, not corruption: a distinct code so
            # clients know to re-submit rather than distrust their bytes.
            await job.frames.put(
                {
                    "type": "error",
                    "code": "token_key_mismatch",
                    "message": str(exc),
                }
            )
        except ProtocolError as exc:
            await job.frames.put(
                {"type": "error", "code": "bad-request", "message": str(exc)}
            )
        except Exception as exc:  # keep the scheduler alive, report in-band
            await job.frames.put(
                {"type": "error", "code": "internal", "message": str(exc)}
            )
        finally:
            if runner is not None:
                runner.close()
            job.status = terminal
            self._completed += 1
            self._jobs.pop(job.id, None)

    async def _run_stats(self, job: ScheduledJob, loop) -> None:
        """The ``stats`` job kind: one terminal ``service-stats`` frame.

        Worker introspection may block on pipe round trips, so it runs
        on the executor (never the event loop) — but outside the slot
        semaphore: observability must answer even when every slice slot
        is busy (the executor keeps a spare thread for exactly this).
        """
        terminal = "error"
        try:
            payload = await loop.run_in_executor(
                self._executor, self.service_stats
            )
            terminal = "service-stats"
            await job.frames.put({"type": "service-stats", **payload})
        except Exception as exc:
            await job.frames.put(
                {"type": "error", "code": "internal", "message": str(exc)}
            )
        finally:
            job.status = terminal
            self._completed += 1
            self._jobs.pop(job.id, None)

    def _slot(self):
        return self._slots

    @property
    def token_key(self) -> bytes:
        """The key this scheduler signs resume tokens with."""
        return self._token_key

    def open_token(self, token: bytes):
        """Authenticate a wire token this scheduler minted and load it.

        The inspection/debugging counterpart of the resume path; raises
        :class:`~repro.service.protocol.ProtocolError` on a token from
        another instance (or tampered bytes) before any decoding.
        """
        return load_checkpoint(verify_token(self._token_key, token))

    def cancel(self, job: ScheduledJob) -> None:
        """Request cooperative cancellation (a disconnect calls this too).

        The job's running slice notices at its next answer boundary,
        emits a terminal ``cancelled`` frame and releases the worker
        slot; a job that already finished is unaffected.  Remote
        backends additionally forward the cancel to the worker process
        holding the job (via the job's registered cancel callback).
        """
        job.request_cancel()

    @property
    def active_jobs(self) -> int:
        """Jobs admitted but not yet wound down (slot pressure proxy)."""
        return len(self._jobs)

    def stats(self) -> dict[str, int]:
        """Scheduler counters (admission/completion/live job counts)."""
        return {
            "admitted": self._admitted,
            "completed": self._completed,
            "active": self.active_jobs,
            "answers_served": self._answers_served,
        }

    def metrics_snapshot(self) -> dict:
        """Cheap, non-blocking counters for a metrics scrape.

        Everything here is event-loop state or a plain attribute — no
        pipe round trips, so a scrape stays fast even while every seat
        is busy (or crashed).  The expensive per-worker/cache rows come
        from :meth:`service_stats` instead.
        """
        slots_free = self._slots._value
        running = min(self._slots_total - slots_free, self.active_jobs)
        return {
            "backend": self._backend.name,
            "admitted": self._admitted,
            "completed": self._completed,
            "active": self.active_jobs,
            "answers_served": self._answers_served,
            "jobs_by_op": dict(self._admitted_by_op),
            "slots_total": self._slots_total,
            "slots_free": slots_free,
            # Admitted-but-not-sliced jobs waiting on the slot semaphore.
            "queue_depth": max(0, self.active_jobs - running),
            "slice_seconds": self._slice_hist.snapshot(),
            "backend_telemetry": self._backend.telemetry(),
        }

    def probe(self) -> bool:
        """One execution-backend health round trip (may block briefly)."""
        return self._backend.probe()

    def service_stats(self) -> dict:
        """The full observability payload behind the ``stats`` job kind.

        Scheduler counters plus per-worker introspection rows from the
        backend (queue depth, warm-session fingerprints, cache hits).
        May block on worker pipe round trips — call from an executor
        thread, never the event loop (``_run_stats`` does).
        """
        workers = self._backend.worker_stats()
        extra = []
        if self._store_init and self._store_obj is not None:
            try:
                extra.append(self._store_obj.stats())
            except Exception:
                pass
        return {
            "scheduler": self.stats(),
            "backend": self._backend.name,
            "workers": workers,
            "cache": aggregate_disk_cache(workers, extra=extra),
            "kernels": kernel_registry_stats(),
        }

    async def close(self) -> None:
        """Cancel every live job, wait for wind-down, stop the executor."""
        self._closed = True
        jobs = list(self._jobs.values())
        for job in jobs:
            self.cancel(job)
        for job in jobs:
            if job._task is None:
                continue
            # Give a still-attached consumer (a live connection handler)
            # first claim on the remaining frames, so the client receives
            # its terminal cancelled frame + resume token.  Only when the
            # runner cannot finish on its own — the consumer is gone and
            # the bounded queue is full — drain on its behalf.
            try:
                await asyncio.wait_for(asyncio.shield(job._task), timeout=1.0)
            except asyncio.TimeoutError:
                drain = asyncio.create_task(job.drain())
                await job._task
                drain.cancel()
                try:
                    await drain
                except asyncio.CancelledError:
                    pass
        self._executor.shutdown(wait=True)
        self._backend.close()
        with self._store_lock:
            if self._store_obj is not None:
                self._store_obj.close()
                self._store_obj = None
