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

Per-job controls, all cooperative (never by killing a thread): the
job's one stop rule (:meth:`Job.take <repro.api.job.Job.take>`, the
rule the library's pages follow too) checks them before every answer,
the first included, in this order:

* :meth:`EnumerationScheduler.cancel` — sets the job's cancel event;
  the running slice notices at the next answer boundary, emits a
  ``cancelled`` frame (with a token when the stream is pausable) and
  releases the slot.  This is exactly what a client disconnect triggers.
* ``deadline``      — wall-clock seconds from the job's runner start,
  an instant on :func:`time.monotonic`; on expiry the job ends with a
  ``deadline`` frame carrying a resume token;
* ``k`` — the one cap on streamed answers (a frame that carries
  ``answer_budget`` is refused as an unknown field); the terminal
  ``stats`` frame carries the token for the remainder.

Every terminal frame is rendered from the page's one record
(:class:`~repro.api.response.EnumerationStats`) by
:func:`~repro.service.protocol.terminal_frame`.

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
from dataclasses import replace

from ..api import Session, graph_fingerprint, load_checkpoint
from ..api.checkpoint import read_header
from ..api.job import Job, replayed_stats
from ..cache.answers import AnswerCache
from .protocol import (
    ProtocolError,
    ServiceRequest,
    TERMINAL_TYPES,
    TokenAuthError,
    answer_frame,
    resolve_token_key,
    sign_token,
    terminal_frame,
    verify_token,
)

__all__ = [
    "EnumerationScheduler",
    "ExecutionBackend",
    "InProcessBackend",
    "ScheduledJob",
    "SessionPool",
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
        #: The content fingerprint of the job's graph: the request
        #: graph's once hashed, or a token's, read off its verified
        #: header when the job is admitted.
        self.fingerprint: str | None = None
        self._cancel = threading.Event()
        self._cancel_callbacks: list[Callable[[], None]] = []
        self._task: asyncio.Task | None = None

    def graph_fingerprint(self) -> str:
        """The request graph's fingerprint, hashed on the first call only.

        Hashing walks the whole graph: call this on an executor thread,
        never on the event loop.
        """
        if self.fingerprint is None:
            self.fingerprint = graph_fingerprint(self.request.graph)
        return self.fingerprint

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
    """The synchronous half of one scheduled job: takes its
    :class:`~repro.api.job.Job` in slices.

    The job holds the stop rule (the request's answer limit, the
    runner's deadline instant and the job's cancel event) and the
    terminal record; the runner turns answers into frames, the record
    into the terminal frame, and signs the resume token.  Never touched
    by more than one executor thread at a time (the scheduler serializes
    a job's slices), so it needs no locking of its own.  All blocking
    work — opening the job (context build) and pulling answers — happens
    inside :meth:`slice_`, on an executor thread, never on the event
    loop.
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
        fingerprint: str | None,
    ) -> None:
        self._session = session
        self._request = request
        # The request graph's hash, if the scheduler already took it.
        self._fingerprint = fingerprint
        self._cancel = cancel
        self._token_key = token_key
        self._job: Job | None = None
        # Where the job starts: a trusted checkpoint this service holds
        # (crash re-dispatch, or the end of a head replayed from the
        # answers tier) with the answers delivered before it — so the
        # count toward k continues there — or, for ops without
        # a checkpoint, how many deterministic answers to replay
        # silently before streaming fresh ones.
        self._resume_payload = resume_payload
        self._base_emitted = base_emitted
        self._skip = skip_answers
        # The deadline is an instant on time.monotonic(), the clock the
        # job checks: an NTP step or VM clock correction must not
        # prematurely expire — or immortalize — a job.
        deadline = (
            deadline_override
            if deadline_override is not None
            else request.deadline
        )
        self._deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )

    def _open(self) -> Job:
        request = self._request
        stop = {
            "limit": request.k,
            "deadline": self._deadline_at,
            "cancel": self._cancel,
        }
        if self._resume_payload is not None:
            # The payload is a checkpoint this service minted or stored
            # itself — a wire token's only after the scheduler verified
            # it — so it loads without the HMAC gate.
            try:
                checkpoint = load_checkpoint(self._resume_payload)
            except Exception as exc:  # server fault, not the client's
                raise RuntimeError(
                    f"internal resume checkpoint failed to load: {exc}"
                ) from exc
            return self._session.job(
                request, checkpoint=checkpoint, emitted=self._base_emitted,
                **stop,
            )
        return self._session.job(
            request, fingerprint=self._fingerprint, **stop
        )

    # -- the slice -----------------------------------------------------
    def slice_(self, max_answers: int) -> tuple[list[dict], bool]:
        """Run one slice; returns ``(frames, finished)``.

        Takes up to ``max_answers`` further answers from the job, whose
        stop rule ends the page on a cancel, the deadline or the answer
        cap.  When it reports finished, the last frame is the job's
        single terminal frame and the job is closed.
        """
        try:
            if self._job is None:
                # Failures while opening — unknown costs, disconnected
                # graphs, a token resumed under another cost — are the
                # client's fault; anything
                # thrown later, mid-enumeration, is a server fault and
                # must not masquerade as one.
                try:
                    self._job = self._open()
                except ProtocolError:
                    raise
                except (ValueError, KeyError) as exc:
                    raise ProtocolError(str(exc)) from exc
            job = self._job
            if self._skip:
                # Crash replay for ops without a checkpoint: the
                # enumeration is deterministic, so re-running it and
                # discarding the answers the client already has
                # restores the exact position.
                self._skip -= len(job.take(self._skip))
            first = job.emitted
            frames = [
                answer_frame(
                    result, rank=first + i if job.mode == "diverse" else None
                )
                for i, result in enumerate(job.take(max_answers))
            ]
            if job.terminal is None:
                return frames, False
            # The one terminal frame, rendered from the job's record.
            # Answers a crash replay has yet to reach count as emitted:
            # the client holds them.  No token for an exhausted page
            # (nothing to resume; the README protocol table promises
            # this), nor while a crash replay is pending: it would sit
            # *before* answers the client already received.
            stats = job.finish()
            token = None
            pausable = stats.next_rank is not None and not stats.exhausted
            if pausable and not self._skip:
                token = sign_token(self._token_key, job.token())
            stats = replace(stats, emitted=stats.emitted + self._skip)
            frames.append(terminal_frame(stats, token))
            return frames, True
        except Exception:
            self.close()
            raise

    def internal_state(self) -> tuple[bytes | None, int]:
        """``(checkpoint bytes, answers delivered)`` for crash re-dispatch.

        Captured by the worker backend after every unfinished slice (the
        protocol's *checkpoint frame*): ranked jobs serialize their
        frontier — even when already exhausted, since resuming it yields
        the terminal stats frame, which re-running the job from scratch
        must not do — so a re-dispatched job resumes exactly where the
        last acknowledged slice ended; other ops return ``None`` and are
        re-dispatched as a deterministic replay that skips the delivered
        prefix.
        """
        return self._job.token(), self._job.emitted

    def close(self) -> None:
        """Release the job (idempotent)."""
        if self._job is not None:
            self._job.close()


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
    def create_runner(
        self, job: "ScheduledJob", resume: "tuple[bytes, int] | None" = None
    ):
        """A fresh runner for one admitted job (cheap; no blocking work).

        ``resume`` is ``(checkpoint bytes, answers delivered)`` when the
        job resumes a wire token the scheduler verified, or continues
        after a head replayed from the answers tier: the runner starts
        there, as a crash re-dispatch does.
        """

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


class SessionPool:
    """One shared :class:`~repro.api.Session` per kernel, built on first use.

    Both backends serve jobs from one: the in-process backend from its
    executor threads, every worker process from its own.  The sessions
    share one ``cache_dir``, so a context build or DP fill in any of
    them warms the rest (and the next server pointed at the directory).
    """

    def __init__(self, cache_dir: "str | None" = None) -> None:
        self._cache_dir = cache_dir
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()

    def get(self, kernel: str) -> Session:
        """The session serving jobs of ``kernel``."""
        with self._lock:
            session = self._sessions.get(kernel)
            if session is None:
                session = self._sessions[kernel] = Session(
                    kernel=kernel, cache_dir=self._cache_dir
                )
            return session

    def stats(self) -> dict[str, dict]:
        """``{kernel: {"cache", "warm"}}``, the rows
        :func:`aggregate_disk_cache` folds."""
        with self._lock:
            sessions = dict(self._sessions)
        return {
            kernel: {
                "cache": session.cache_info(),
                "warm": session.warm_fingerprints(),
            }
            for kernel, session in sessions.items()
        }

    def close(self) -> None:
        """Close every session (and the store handle each owns)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()


class InProcessBackend(ExecutionBackend):
    """Slices run on the scheduler's executor threads (the GIL-bound
    reference backend, kept as the differential oracle).

    Sessions are shared across jobs, one per kernel: every client asking
    about the same graph reuses one context build and one prepared DP
    table per cost.
    """

    name = "inprocess"

    def __init__(self, token_key: bytes, cache_dir: "str | None" = None) -> None:
        self._token_key = token_key
        self.sessions = SessionPool(cache_dir)

    def create_runner(
        self, job: "ScheduledJob", resume: "tuple[bytes, int] | None" = None
    ) -> _JobRunner:
        payload, emitted = resume or (None, 0)
        return _JobRunner(
            self.sessions.get(job.request.kernel),
            job.request,
            job._cancel,
            self._token_key,
            resume_payload=payload,
            base_emitted=emitted,
            fingerprint=job.fingerprint,
        )

    def worker_stats(self) -> list[dict]:
        return [
            {
                "worker": 0,
                "pid": os.getpid(),
                "alive": True,
                "active_jobs": None,  # jobs are not pinned in-process
                "sessions": self.sessions.stats(),
            }
        ]

    def close(self) -> None:
        self.sessions.close()


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
    workers:
        Slices that run at once: executor threads on the in-process
        backend, worker processes on the process backend.  Every other
        admitted job — any number of them — waits its turn on the slot
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
    backend:
        Where slices execute: ``"inprocess"`` (default; the reference
        backend and differential oracle) or ``"process"`` (long-lived
        worker processes with session affinity,
        :class:`~repro.service.workers.ProcessWorkerBackend`).
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
        workers: int = 2,
        slice_answers: int = DEFAULT_SLICE_ANSWERS,
        max_pending_frames: int = 64,
        token_key: bytes | None = None,
        backend: str = "inprocess",
        cache_dir: "str | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if slice_answers < 1:
            raise ValueError(f"slice_answers must be >= 1, got {slice_answers}")
        if max_pending_frames < 1:
            raise ValueError(
                f"max_pending_frames must be >= 1, got {max_pending_frames}"
            )
        self._slice_answers = slice_answers
        self._max_pending = max_pending_frames
        # Explicit key, else the REPRO_TOKEN_SECRET environment secret,
        # else random (tokens then die with this instance).
        self._token_key = resolve_token_key(token_key)
        self._cache_dir = cache_dir
        if backend == "inprocess":
            self._backend = InProcessBackend(self._token_key, cache_dir)
        elif backend == "process":
            from .workers import ProcessWorkerBackend

            self._backend = ProcessWorkerBackend(
                workers, self._token_key, cache_dir
            )
        else:
            raise ValueError(
                f"unknown backend {backend!r}; expected 'inprocess' or 'process'"
            )
        # One slot per running slice (+1 thread keeps the cheap ``stats``
        # job kind responsive under full load).
        self._executor = ThreadPoolExecutor(
            max_workers=workers + 1, thread_name_prefix="repro-service"
        )
        self._slots = asyncio.Semaphore(workers)
        self._slots_total = workers
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

    # -- sessions ------------------------------------------------------
    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend serving this scheduler's slices."""
        return self._backend

    def session(self, kernel: str = "bitset") -> Session:
        """The shared in-process session for ``kernel``.

        Only meaningful for the in-process backend (worker processes
        own their sessions; inspect them through the ``stats`` job kind).
        """
        if not isinstance(self._backend, InProcessBackend):
            raise RuntimeError(
                "session() is an in-process-backend accessor; use the "
                "'stats' job kind to inspect worker sessions"
            )
        return self._backend.sessions.get(kernel)

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

    def _start_ranked(
        self, job: ScheduledJob
    ) -> tuple[list[dict], tuple[bytes, int] | None]:
        """Where a ranked job starts: ``(frames, resume)``.

        The one gate of a wire token: it is authenticated and its header
        read here, once per job — a bad tag raises
        :class:`~repro.service.protocol.TokenAuthError`, a malformed
        token :class:`~repro.service.protocol.ProtocolError` — and
        ``job.fingerprint`` becomes the header's.  The job then resumes
        from the verified payload, or from the end of the page's head
        the answers tier holds: ``frames`` are that head's answer
        frames, followed by the terminal ``stats`` frame when the head
        serves the whole page.  Any failure of the tier probe is a miss
        (no frames): the live path re-raises validation failures with
        their proper error frames.  Runs on an executor thread.
        """
        request = job.request
        header = resume = None
        if request.token is not None:
            payload = verify_token(self._token_key, request.token)
            try:
                header = read_header(payload)
            except ValueError as exc:
                raise ProtocolError(f"invalid resume token: {exc}") from None
            job.fingerprint = header.fingerprint
            resume = (payload, 0)
        try:
            store = self._store()
            if store is None:
                return [], resume
            started = time.monotonic()
            if header is not None:
                # The token's header picks the keys; the frontier is
                # left to the job that resumes it on a miss.
                if header.exhausted:
                    return [], resume
                answers = AnswerCache.for_checkpoint(store, header)
                # Restored only on a hit.
                graph, start = header.restore_graph, header.next_rank
            else:
                graph, start = request.graph, 0
                answers = AnswerCache.for_request(
                    store,
                    job.graph_fingerprint(),
                    request.cost,
                    request.width_bound,
                    request.preprocess,
                )
            if answers is None:
                return [], resume
            head = answers.replay(answers.load(), graph, start, request.k)
            if head is None:
                return [], resume
            frames = [answer_frame(result) for result in head.results]
            if head.serves(request.k):
                stats = replayed_stats(
                    answers, head, kernel=request.kernel, started=started
                )
                token = None
                if not stats.exhausted:
                    token = sign_token(self._token_key, head.checkpoint)
                frames.append(terminal_frame(stats, token))
            return frames, (head.checkpoint, len(head.results))
        except Exception:
            return [], resume

    async def _deliver(self, job: ScheduledJob, frames: list[dict]) -> str | None:
        """Queue ``frames`` on the job; the terminal frame's type, if any.

        Blocks when the consumer is behind (bounded queue): a slow
        client costs buffer space and its own latency, nothing else.
        """
        terminal = None
        for frame in frames:
            if frame["type"] == "answer":
                job.emitted += 1
            else:
                terminal = frame["type"]
            await job.frames.put(frame)
        return terminal

    async def _run(self, job: ScheduledJob) -> None:
        job.status = "running"
        loop = asyncio.get_running_loop()
        if job.request.op == "stats":
            await self._run_stats(job, loop)
            return
        runner = None
        terminal = "error"
        try:
            resume = None
            if job.request.mode == "ranked":
                # One hop per ranked job, on the executor's spare thread
                # like stats: a token is verified there, and the answers
                # tier serves the page's head without a slice slot or the
                # backend.  A head that is the whole page ends the job
                # there — no worker seat, no slot wait; otherwise the
                # live rest starts at the head's end (or the token's).
                frames, resume = await loop.run_in_executor(
                    self._executor, self._start_ranked, job
                )
                served = await self._deliver(job, frames)
                if served is not None:
                    terminal = served
                    self._answers_served += 1
                    return
            runner = self._backend.create_runner(job, resume=resume)
            while True:
                async with self._slots:
                    started = time.perf_counter()
                    frames, finished = await loop.run_in_executor(
                        self._executor, runner.slice_, self._slice_answers
                    )
                    self._slice_hist.observe(time.perf_counter() - started)
                # The slot is already released while frames queue.
                terminal = await self._deliver(job, frames) or terminal
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
