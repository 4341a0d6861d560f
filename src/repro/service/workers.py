"""The multi-process execution backend: long-lived workers, warm sessions.

The in-process scheduler proved the service byte-exact under
concurrency, but every slice still contends on one GIL: aggregate
throughput *fell* as clients were added.  This module is the escape
hatch — ``backend="process"`` dispatches whole slices (answer-budget
batches, never single expansions) to a pool of worker processes spawned
once at server startup, each owning kernel-keyed
:class:`~repro.api.Session` objects whose prepared-table and
preprocess-plan caches stay warm across jobs.

Placement is by **graph-fingerprint affinity**: a request's content
fingerprint picks a consistent preferred worker, so repeat requests for
the same graph land where its context is already built; when the
preferred worker is clearly busier than the least-loaded one, the job
spills there instead (load beats warmth only past a threshold).

Wire protocol (one duplex pipe per worker; messages are typed tuples,
length-prefixed and pickled by :class:`multiprocessing.connection
.Connection`):

========================  ============================================
parent -> worker           meaning
========================  ============================================
``(seq, "slice", job_id,   run one slice; ``spec`` (first dispatch or
max_answers, spec)``       crash re-dispatch only) carries the request
                           plus resume/replay state
``(None, "cancel", id)``   cooperative cancel — handled by the worker's
                           *reader thread* while the slice runs, so it
                           lands at the next answer boundary
``(None, "finish", id)``   drop job state (parent-side abort)
``(seq, "stats")``         session/cache introspection round trip
``(seq, "ping")``          heartbeat round trip
``(None, "shutdown")``     exit the worker loop
========================  ============================================

Replies echo ``seq``: ``("frames", job_id, frames, finished,
checkpoint, emitted)`` — the *checkpoint frame*: after every unfinished
slice the worker serializes its stream frontier, so the parent always
holds the state as of the last acknowledged answer batch — plus
``("error", ...)``, ``("stats-reply", ...)`` and ``("pong", ...)``.
Exactly one round trip is in flight per worker (the parent's dispatch
lock), so replies need no demultiplexer; stale replies from a timed-out
stats probe are discarded by sequence number.

Crash recovery: a worker death surfaces as ``EOFError``/``OSError`` on
the pipe (plus ``Process.is_alive``), the pool respawns the seat, and
each affected job independently re-dispatches from its last checkpoint
— pausable streams resume their serialized frontier; diverse and
decomposition jobs (deterministic, not pausable) replay from scratch,
silently skipping the answers the client already has.  Either way the
client's byte stream continues exactly where the last acknowledged
slice ended; ``tests/service/`` kills workers mid-stream to hold the
backend to that.

Workers use the ``spawn`` start method: the parent runs an asyncio loop
plus executor threads, and forking a threaded process inherits locks in
undefined states.  The ~0.2 s interpreter+import cost is paid once per
worker per server lifetime — these are long-lived processes, not a task
pool.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
import zlib

from ..api.checkpoint import read_header
from ..api.fingerprint import graph_fingerprint
from .protocol import (
    ProtocolError,
    TokenAuthError,
    resolve_token_key,
    verify_token,
)
from .scheduler import ExecutionBackend, ScheduledJob, _JobRunner

__all__ = ["ProcessWorkerBackend", "WorkerPool"]

#: A job spills off its preferred (affinity) worker once that worker is
#: running this many more jobs than the least-loaded one.
DEFAULT_SPILL_THRESHOLD = 2

#: Worker crashes tolerated per job before it fails with an ``error``
#: frame (a graph that deterministically kills workers must not respawn
#: the pool forever).
DEFAULT_MAX_REDISPATCH = 3


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------
def _worker_main(
    conn, token_key: bytes, index: int, cache_dir: "str | None" = None
) -> None:
    """One worker process: warm sessions, a slice loop, a cancel reader.

    The reader thread owns ``conn.recv``: it turns ``cancel`` messages
    into event sets *immediately* (while the main thread is inside a
    slice), and queues everything else for the main loop.  Only the
    main thread sends, so the worker side needs no send lock.
    """
    import queue
    import signal

    from ..api import Session

    # A foreground ``repro serve`` shares its process group with the
    # terminal, so Ctrl-C delivers SIGINT here too — mid-slice, possibly
    # mid-sqlite-write.  Shutdown must stay parent-orchestrated (the
    # ``shutdown`` message, then join): ignore the signal and let the
    # pool wind this seat down in order.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass

    work: "queue.SimpleQueue" = queue.SimpleQueue()
    state_lock = threading.Lock()
    cancel_events: dict[int, threading.Event] = {}
    # Cancels racing ahead of their job's first slice (the reader sees
    # the cancel before the main loop created the runner) park here.
    pre_cancelled: set[int] = set()

    def reader() -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                work.put(None)
                return
            kind = message[1]
            if kind == "cancel":
                job_id = message[2]
                with state_lock:
                    event = cancel_events.get(job_id)
                    if event is None:
                        pre_cancelled.add(job_id)
                    else:
                        event.set()
            elif kind == "shutdown":
                work.put(None)
                return
            else:
                work.put(message)

    threading.Thread(
        target=reader, name=f"repro-worker-{index}-reader", daemon=True
    ).start()

    sessions: dict[str, Session] = {}
    runners: dict[int, _JobRunner] = {}

    def session_for(kernel: str) -> Session:
        session = sessions.get(kernel)
        if session is None:
            # Every seat points at the same cache_dir, so one worker's
            # context build or DP fill warms the whole pool (and the
            # next server pointed at the directory).
            session = sessions[kernel] = Session(
                kernel=kernel, cache_dir=cache_dir
            )
        return session

    def drop(job_id: int) -> None:
        runner = runners.pop(job_id, None)
        if runner is not None:
            runner.close()
        with state_lock:
            cancel_events.pop(job_id, None)
            pre_cancelled.discard(job_id)

    try:
        _worker_loop(
            conn, token_key, work, state_lock, cancel_events, pre_cancelled,
            sessions, runners, session_for, drop,
        )
    finally:
        # Orderly seat teardown even when the loop dies on a pipe error:
        # release streams, then close the sessions — closing a session
        # closes the store handle it owns, checkpointing the shared
        # sqlite WAL instead of abandoning it hot.
        for runner in list(runners.values()):
            runner.close()
        runners.clear()
        for session in sessions.values():
            session.close()
        sessions.clear()
        conn.close()


def _worker_loop(
    conn,
    token_key: bytes,
    work,
    state_lock,
    cancel_events,
    pre_cancelled,
    sessions,
    runners,
    session_for,
    drop,
) -> None:
    """The worker's message loop (split out so teardown wraps it)."""
    while True:
        message = work.get()
        if message is None:
            break
        seq, kind = message[0], message[1]
        if kind == "ping":
            conn.send((seq, ("pong", os.getpid())))
        elif kind == "stats":
            conn.send(
                (
                    seq,
                    (
                        "stats-reply",
                        {
                            "pid": os.getpid(),
                            "pinned_jobs": len(runners),
                            "sessions": {
                                kernel: {
                                    "cache": session.cache_info(),
                                    "warm": session.warm_fingerprints(),
                                }
                                for kernel, session in sessions.items()
                            },
                        },
                    ),
                )
            )
        elif kind == "finish":
            drop(message[2])
        elif kind == "slice":
            _seq, _kind, job_id, max_answers, spec = message
            try:
                runner = runners.get(job_id)
                if runner is None:
                    if spec is None:
                        raise RuntimeError(
                            f"slice for unknown job {job_id} without a spec "
                            "(dispatch protocol violation)"
                        )
                    request = spec["request"]
                    event = threading.Event()
                    with state_lock:
                        if spec["cancelled"] or job_id in pre_cancelled:
                            pre_cancelled.discard(job_id)
                            event.set()
                        cancel_events[job_id] = event
                    runner = _JobRunner(
                        session_for(request.kernel),
                        request,
                        event,
                        token_key,
                        resume_payload=spec["resume_payload"],
                        base_emitted=spec["base_emitted"],
                        skip_answers=spec["skip_answers"],
                        deadline_override=spec["deadline_override"],
                    )
                    runners[job_id] = runner
                frames, finished = runner.slice_(max_answers)
                if finished:
                    drop(job_id)
                    conn.send(
                        (seq, ("frames", job_id, frames, True, None, 0))
                    )
                else:
                    checkpoint, emitted = runner.internal_state()
                    conn.send(
                        (
                            seq,
                            (
                                "frames",
                                job_id,
                                frames,
                                False,
                                checkpoint,
                                emitted,
                            ),
                        )
                    )
            except TokenAuthError as exc:
                drop(job_id)
                conn.send((seq, ("error", job_id, "token", str(exc))))
            except ProtocolError as exc:
                drop(job_id)
                conn.send((seq, ("error", job_id, "protocol", str(exc))))
            except Exception as exc:
                drop(job_id)
                conn.send((seq, ("error", job_id, "internal", str(exc))))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _affinity_index(fingerprint: str, size: int) -> int:
    """Consistent preferred-worker choice for a content fingerprint."""
    return zlib.crc32(fingerprint.encode("ascii")) % size


class WorkerHandle:
    """One seat in the pool: a process, its pipe, and the two locks.

    ``send_lock`` keeps concurrent sends off the pipe byte stream;
    ``dispatch_lock`` serializes round trips so a reply always belongs
    to the one request in flight.  ``active_jobs`` (guarded by the pool
    lock) is the routing load signal.
    """

    def __init__(self, index: int, generation: int, process, conn) -> None:
        self.index = index
        self.generation = generation
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.dispatch_lock = threading.Lock()
        self.active_jobs = 0  # guarded by the pool lock
        self.dead = False  # guarded by the pool lock
        self._seq = itertools.count(1)

    @property
    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()

    def send(self, kind: str, *rest) -> None:
        """Fire-and-forget message (``cancel`` / ``finish`` / ``shutdown``)."""
        with self.send_lock:
            self.conn.send((None, kind, *rest))

    def round_trip(self, kind: str, *rest):
        """Send one request and block for its (sequence-matched) reply.

        Deliberately unbounded: a slice dispatch legitimately blocks for
        as long as the enumeration runs (the job's *deadline* is
        enforced inside the worker, on ``time.monotonic()``, never by a
        pipe timeout here).  Timed waits belong to
        :meth:`try_round_trip`, whose reply deadline is likewise
        monotonic.  Raises the pipe's ``EOFError``/``OSError`` when the
        worker died — the caller's crash-detection signal.
        """
        with self.dispatch_lock:
            seq = next(self._seq)
            with self.send_lock:
                self.conn.send((seq, kind, *rest))
            while True:
                reply_seq, reply = self.conn.recv()
                if reply_seq == seq:
                    return reply
                # A stale reply from a timed-out probe; drop and keep
                # waiting for ours.

    def try_round_trip(self, kind: str, *rest, lock_timeout: float,
                       reply_timeout: float):
        """Best-effort round trip for observability probes.

        Returns ``None`` instead of blocking behind a long slice, and
        raises ``TimeoutError`` (leaving a stale, sequence-discarded
        reply in the pipe) if the worker accepts the probe but does not
        answer in time.
        """
        if not self.dispatch_lock.acquire(timeout=lock_timeout):
            return None
        try:
            seq = next(self._seq)
            with self.send_lock:
                self.conn.send((seq, kind, *rest))
            deadline = time.monotonic() + reply_timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self.conn.poll(remaining):
                    raise TimeoutError("worker probe reply timed out")
                reply_seq, reply = self.conn.recv()
                if reply_seq == seq:
                    return reply
        finally:
            self.dispatch_lock.release()


class WorkerPool:
    """Spawns and routes over the long-lived worker processes.

    Routing (:meth:`route`) is consistent-choice-with-spill: the
    fingerprint's preferred worker wins unless it is ``spill_threshold``
    jobs busier than the least-loaded seat.  A dead seat is respawned in
    place with a bumped generation; jobs pinned to the old process each
    notice the broken pipe on their next slice and re-dispatch
    themselves.
    """

    def __init__(
        self,
        workers: int,
        token_key: bytes,
        spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
        cache_dir: "str | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._token_key = token_key
        self._spill = spill_threshold
        self._cache_dir = cache_dir
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._respawns = 0
        self._closed = False
        self._workers = [self._spawn(i, 0) for i in range(workers)]

    def _spawn(self, index: int, generation: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._token_key, index, self._cache_dir),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return WorkerHandle(index, generation, process, parent_conn)

    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def respawns(self) -> int:
        """Seats respawned after a crash (the crash-recovery telemetry)."""
        with self._lock:
            return self._respawns

    def route(self, fingerprint: str) -> WorkerHandle:
        """Pick a worker for a job and count it against that worker."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self._revive_locked()
            preferred = self._workers[
                _affinity_index(fingerprint, len(self._workers))
            ]
            least = min(
                self._workers, key=lambda w: (w.active_jobs, w.index)
            )
            chosen = preferred
            if preferred.active_jobs - least.active_jobs >= self._spill:
                chosen = least
            chosen.active_jobs += 1
            return chosen

    def _revive_locked(self) -> None:
        for i, worker in enumerate(self._workers):
            if worker.dead or not worker.process.is_alive():
                worker.dead = True
                self._workers[i] = self._spawn(i, worker.generation + 1)
                self._respawns += 1

    def report_crash(self, handle: WorkerHandle) -> None:
        """Respawn a seat whose process died (idempotent across jobs)."""
        with self._lock:
            handle.dead = True
            if self._closed:
                return
            current = self._workers[handle.index]
            if current is handle:
                self._workers[handle.index] = self._spawn(
                    handle.index, handle.generation + 1
                )
                self._respawns += 1
        try:
            handle.conn.close()
        except OSError:
            pass

    def release(self, handle: WorkerHandle) -> None:
        """Drop one job from a worker's load count."""
        with self._lock:
            if handle.active_jobs > 0:
                handle.active_jobs -= 1

    def probe(self) -> bool:
        """One ``ping`` round trip against a live seat (``/health``).

        Tries the least-loaded seats first; a busy pool degrades to a
        slower probe (waiting on the dispatch lock), a dead pool — every
        seat crashed faster than revival — reports unhealthy.
        """
        with self._lock:
            if self._closed:
                return False
            self._revive_locked()
            workers = sorted(
                self._workers, key=lambda w: (w.active_jobs, w.index)
            )
        for worker in workers:
            if not worker.alive:
                continue
            try:
                reply = worker.try_round_trip(
                    "ping", lock_timeout=2.0, reply_timeout=15.0
                )
            except (TimeoutError, EOFError, OSError):
                continue
            if reply is not None and reply[0] == "pong":
                return True
        return False

    def worker_stats(self) -> list[dict]:
        """One introspection row per seat (best-effort pipe probes)."""
        with self._lock:
            workers = list(self._workers)
            respawns = self._respawns
        rows = []
        for worker in workers:
            row = {
                "worker": worker.index,
                "generation": worker.generation,
                "pid": worker.process.pid,
                "alive": worker.alive,
                "active_jobs": worker.active_jobs,
                "respawns": respawns,
            }
            if worker.alive:
                try:
                    reply = worker.try_round_trip(
                        "stats", lock_timeout=2.0, reply_timeout=15.0
                    )
                except (TimeoutError, EOFError, OSError):
                    row["busy"] = True
                else:
                    if reply is None:
                        row["busy"] = True
                    else:
                        row.update(reply[1])
            rows.append(row)
        return rows

    def close(self) -> None:
        with self._lock:
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.send("shutdown")
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.process.join(timeout=3)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2)
            try:
                worker.conn.close()
            except OSError:
                pass


class _RemoteRunner:
    """The parent-side runner of one job on the worker pool.

    Presents the exact ``slice_``/``close`` surface of
    :class:`~repro.service.scheduler._JobRunner`, but each slice is one
    pipe round trip to the worker holding the job's stream.  Keeps the
    last acknowledged ``(checkpoint, emitted)`` pair so a worker crash
    re-dispatches the job — to a freshly routed worker — continuing
    exactly where the last delivered answer batch ended.
    """

    def __init__(
        self,
        pool: WorkerPool,
        job: ScheduledJob,
        token_key: bytes,
        max_redispatch: int,
    ) -> None:
        self._pool = pool
        self._job = job
        self._token_key = token_key
        self._max_redispatch = max_redispatch
        self._handle: WorkerHandle | None = None
        self._checkpoint: bytes | None = None
        self._emitted = 0
        self._finished = False
        self._crashes = 0
        self._fingerprint: str | None = None
        deadline = job.request.deadline
        # time.monotonic(), matching the runner-side deadline clock and
        # the probe reply timeouts in try_round_trip: a wall-clock step
        # (NTP, VM resume) must neither expire a fresh job nor grant a
        # re-dispatched one extra time.
        self._deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        job.add_cancel_callback(self._forward_cancel)

    # -- cancel forwarding ---------------------------------------------
    def _forward_cancel(self) -> None:
        handle = self._handle
        if handle is None or self._finished:
            return  # not dispatched yet; the spec will carry the flag
        try:
            handle.send("cancel", self._job.id)
        except (OSError, ValueError):
            pass  # dead pipe: the re-dispatch spec carries the flag

    # -- routing -------------------------------------------------------
    def _routing_fingerprint(self) -> str:
        request = self._job.request
        if request.graph is not None:
            return graph_fingerprint(request.graph)
        # Token resume: authenticate (same gate as the worker will
        # apply), then read the fingerprint from the token's header so
        # the resumed job lands on the worker already warm for its graph.
        payload = verify_token(self._token_key, request.token)
        try:
            return read_header(payload).fingerprint
        except ValueError as exc:
            raise ProtocolError(f"invalid resume token: {exc}") from None

    def _spec(self) -> dict:
        """The dispatch spec: the request plus resume/replay state."""
        remaining = None
        if self._deadline_at is not None:
            remaining = max(self._deadline_at - time.monotonic(), 1e-6)
        if self._checkpoint is not None:
            # Pausable stream: resume the serialized frontier, counters
            # continuing at the answers already delivered.
            return {
                "request": self._job.request,
                "resume_payload": self._checkpoint,
                "base_emitted": self._emitted,
                "skip_answers": 0,
                "deadline_override": remaining,
                "cancelled": self._job.cancelled,
            }
        # No checkpoint (first dispatch, or a non-pausable op):
        # deterministic replay, skipping what the client already has.
        return {
            "request": self._job.request,
            "resume_payload": None,
            "base_emitted": self._emitted,
            "skip_answers": self._emitted,
            "deadline_override": remaining,
            "cancelled": self._job.cancelled,
        }

    # -- the slice -----------------------------------------------------
    def slice_(self, max_answers: int) -> tuple[list[dict], bool]:
        if self._fingerprint is None:
            self._fingerprint = self._routing_fingerprint()
        while True:
            handle = self._handle
            spec = None
            if handle is None or not handle.alive:
                if handle is not None:
                    # Our worker died between slices; its state is gone.
                    self._pool.release(handle)
                    self._pool.report_crash(handle)
                handle = self._pool.route(self._fingerprint)
                self._handle = handle
                spec = self._spec()
            try:
                reply = handle.round_trip(
                    "slice", self._job.id, max_answers, spec
                )
            except (EOFError, OSError) as exc:
                self._pool.release(handle)
                self._pool.report_crash(handle)
                self._handle = None
                self._crashes += 1
                if self._crashes > self._max_redispatch:
                    self._finished = True
                    raise RuntimeError(
                        f"worker process crashed {self._crashes} times "
                        "while running this job"
                    ) from exc
                continue  # re-dispatch from the last acknowledged state
            kind = reply[0]
            if kind == "frames":
                _, _job_id, frames, finished, checkpoint, emitted = reply
                if finished:
                    self._finish(handle)
                else:
                    if checkpoint is not None:
                        self._checkpoint = checkpoint
                    self._emitted = emitted
                return frames, finished
            if kind == "error":
                _, _job_id, error_kind, message = reply
                self._finish(handle)
                if error_kind == "token":
                    raise TokenAuthError(message)
                if error_kind == "protocol":
                    raise ProtocolError(message)
                raise RuntimeError(message)
            raise RuntimeError(f"unexpected worker reply {kind!r}")

    def _finish(self, handle: WorkerHandle) -> None:
        if not self._finished:
            self._finished = True
            self._pool.release(handle)

    def close(self) -> None:
        """Release pool accounting; tell the worker to drop an aborted job."""
        handle, self._handle = self._handle, None
        if self._finished or handle is None:
            self._finished = True
            return
        self._finished = True
        self._pool.release(handle)
        try:
            handle.send("finish", self._job.id)
        except (OSError, ValueError):
            pass  # worker already gone; nothing to drop


class ProcessWorkerBackend(ExecutionBackend):
    """``backend="process"``: slices execute on the worker-process pool.

    Parameters
    ----------
    workers:
        Pool size (default: ``os.cpu_count()``, floor 2).  Long-lived —
        spawned here, reaped by :meth:`close`.
    token_key:
        The scheduler's token-signing key; workers mint resume tokens
        under it so pause/resume is backend-transparent.
    spill_threshold:
        Load difference at which affinity yields to the least-loaded
        worker.
    max_redispatch:
        Worker crashes tolerated per job before it errors out.
    cache_dir:
        Persistent artifact-store directory shared by every seat's
        sessions (:mod:`repro.cache`); ``None`` defers to the
        ``REPRO_CACHE_DIR`` environment variable, which spawn-started
        workers inherit.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        token_key: bytes | None = None,
        spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
        max_redispatch: int = DEFAULT_MAX_REDISPATCH,
        cache_dir: "str | None" = None,
    ) -> None:
        if workers is None:
            workers = max(os.cpu_count() or 1, 2)
        self._token_key = resolve_token_key(token_key)
        self._max_redispatch = max_redispatch
        self.pool = WorkerPool(
            workers,
            self._token_key,
            spill_threshold=spill_threshold,
            cache_dir=cache_dir,
        )

    def create_runner(self, job: ScheduledJob) -> _RemoteRunner:
        return _RemoteRunner(
            self.pool, job, self._token_key, self._max_redispatch
        )

    def worker_stats(self) -> list[dict]:
        return self.pool.worker_stats()

    def probe(self) -> bool:
        return self.pool.probe()

    def telemetry(self) -> dict:
        return {"workers": self.pool.size, "respawns": self.pool.respawns}

    def close(self) -> None:
        self.pool.close()
