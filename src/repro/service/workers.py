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
max_answers, spec)``       crash re-dispatch only) carries the request,
                           its graph's fingerprint, the seconds left
                           to its deadline and resume/replay state
``(None, "cancel", id)``   cooperative cancel — handled by the worker's
                           *reader thread* while the slice runs, so it
                           lands at the next answer boundary
``(None, "finish", id)``   drop job state (parent-side abort)
``(seq, "stats")``         session/cache introspection round trip
``(seq, "ping")``          heartbeat round trip
``(None, "shutdown")``     exit the worker loop
========================  ============================================

Replies echo ``seq``: ``("frames", job_id, frames, stats, checkpoint,
emitted)`` — the slice's answer frames, then either ``stats=None`` and
the *checkpoint frame* (after every unfinished slice the worker
serializes its stream frontier, so the parent always holds the state as
of the last acknowledged answer batch) or, once the page ended, its
:class:`~repro.api.response.EnumerationStats` record with the page's
*unsigned* resume token as ``checkpoint``: the scheduler renders the
terminal frame and signs the token, so a worker never holds the signing
key — plus ``("error", ...)``, ``("stats-reply", ...)`` and
``("pong", ...)``.
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

from ..api import EnumerationStats
from .protocol import ProtocolError
from .scheduler import ExecutionBackend, ScheduledJob, SessionPool, _JobRunner

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
def _worker_main(conn, index: int, cache_dir: "str | None" = None) -> None:
    """One worker process: warm sessions, a slice loop, a cancel reader.

    The reader thread owns ``conn.recv``: it turns ``cancel`` messages
    into event sets *immediately* (while the main thread is inside a
    slice), and queues everything else for the main loop.  Only the
    main thread sends, so the worker side needs no send lock.
    """
    import queue
    import signal

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

    sessions = SessionPool(cache_dir)
    runners: dict[int, _JobRunner] = {}

    def drop(job_id: int) -> None:
        runner = runners.pop(job_id, None)
        if runner is not None:
            runner.close()
        with state_lock:
            cancel_events.pop(job_id, None)
            pre_cancelled.discard(job_id)

    try:
        _worker_loop(
            conn, work, state_lock, cancel_events, pre_cancelled, sessions,
            runners, drop,
        )
    finally:
        # Orderly seat teardown even when the loop dies on a pipe error:
        # release streams, then close the sessions — closing a session
        # closes the store handle it owns, checkpointing the shared
        # sqlite WAL instead of abandoning it hot.
        for runner in list(runners.values()):
            runner.close()
        runners.clear()
        sessions.close()
        conn.close()


def _worker_loop(
    conn,
    work,
    state_lock,
    cancel_events,
    pre_cancelled,
    sessions,
    runners,
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
                            "sessions": sessions.stats(),
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
                    left = spec["seconds_left"]
                    runner = _JobRunner(
                        sessions.get(request.kernel),
                        request,
                        event,
                        resume_payload=spec["resume_payload"],
                        base_emitted=spec["base_emitted"],
                        skip_answers=spec["skip_answers"],
                        deadline_at=(
                            None if left is None else time.monotonic() + left
                        ),
                        fingerprint=spec["fingerprint"],
                    )
                    runners[job_id] = runner
                frames, stats, token = runner.slice_(max_answers)
                if stats is None:
                    checkpoint, emitted = runner.internal_state()
                else:
                    drop(job_id)
                    checkpoint, emitted = token, 0
                conn.send(
                    (seq, ("frames", job_id, frames, stats, checkpoint, emitted))
                )
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
    fingerprint's preferred worker wins unless it is
    :data:`DEFAULT_SPILL_THRESHOLD` jobs busier than the least-loaded
    seat.  A dead seat is respawned in place with a bumped generation;
    jobs pinned to the old process each notice the broken pipe on their
    next slice and re-dispatch themselves.
    """

    def __init__(self, workers: int, cache_dir: "str | None" = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
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
            args=(child_conn, index, self._cache_dir),
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
            if preferred.active_jobs - least.active_jobs >= DEFAULT_SPILL_THRESHOLD:
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
    :class:`~repro.service.scheduler._JobRunner` — a finished slice hands
    back the worker's record and unsigned token for the scheduler to
    render and sign — but each slice is one pipe round trip to the
    worker holding the job's stream.  Routes by the job's cached graph
    fingerprint, and hands the worker what is left of the job's deadline
    instant, which the worker turns back into one.  Keeps the
    last acknowledged ``(checkpoint, emitted)`` pair so a worker crash
    re-dispatches the job — to a freshly routed worker — continuing
    exactly where the last delivered answer batch ended.  A job that
    resumes a verified wire token, or continues after a replayed head,
    starts from that pair (``resume``).
    """

    def __init__(
        self,
        pool: WorkerPool,
        job: ScheduledJob,
        resume: "tuple[bytes, int] | None" = None,
    ) -> None:
        self._pool = pool
        self._job = job
        self._handle: WorkerHandle | None = None
        self._checkpoint, self._emitted = resume or (None, 0)
        self._finished = False
        self._crashes = 0
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

    def _spec(self) -> dict:
        """The dispatch spec: the request plus resume/replay state."""
        deadline_at = self._job.deadline_at
        left = None
        if deadline_at is not None:
            # On time.monotonic(), the job's clock: a re-dispatched job
            # gets only what is left of its deadline, never a fresh one.
            left = max(deadline_at - time.monotonic(), 1e-6)
        return {
            "request": self._job.request,
            # A ranked job resumes its serialized frontier, counters
            # continuing at the answers already delivered; without a
            # checkpoint (first dispatch, or another op) the job replays
            # deterministically, skipping what the client already has.
            "resume_payload": self._checkpoint,
            "base_emitted": self._emitted,
            "skip_answers": 0 if self._checkpoint is not None else self._emitted,
            "seconds_left": left,
            "cancelled": self._job.cancelled,
            # A fresh job's graph hash, taken once in this process.
            "fingerprint": self._job.fingerprint,
        }

    # -- the slice -----------------------------------------------------
    def slice_(
        self, max_answers: int
    ) -> tuple[list[dict], EnumerationStats | None, bytes | None]:
        while True:
            handle = self._handle
            spec = None
            if handle is None or not handle.alive:
                if handle is not None:
                    # Our worker died between slices; its state is gone.
                    self._pool.release(handle)
                    self._pool.report_crash(handle)
                # A token's fingerprint was read off its header at
                # admission, so a resumed job lands on the worker warm
                # for its graph.
                handle = self._pool.route(self._job.graph_fingerprint())
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
                if self._crashes > DEFAULT_MAX_REDISPATCH:
                    self._finished = True
                    raise RuntimeError(
                        f"worker process crashed {self._crashes} times "
                        "while running this job"
                    ) from exc
                continue  # re-dispatch from the last acknowledged state
            kind = reply[0]
            if kind == "frames":
                _, _job_id, frames, stats, checkpoint, emitted = reply
                if stats is not None:
                    self._finish(handle)
                    return frames, stats, checkpoint
                if checkpoint is not None:
                    self._checkpoint = checkpoint
                self._emitted = emitted
                return frames, None, None
            if kind == "error":
                _, _job_id, error_kind, message = reply
                self._finish(handle)
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

    A worker ships a finished page's record and raw resume token; the
    scheduler renders the terminal frame and signs the token, so no
    worker process ever holds the signing key.

    Parameters
    ----------
    workers:
        Pool size.  Long-lived — spawned here, reaped by :meth:`close`.
    cache_dir:
        Persistent artifact-store directory shared by every seat's
        sessions (:mod:`repro.cache`); ``None`` defers to the
        ``REPRO_CACHE_DIR`` environment variable, which spawn-started
        workers inherit.
    """

    name = "process"

    def __init__(self, workers: int, cache_dir: "str | None" = None) -> None:
        self.pool = WorkerPool(workers, cache_dir=cache_dir)

    def create_runner(
        self, job: ScheduledJob, resume: "tuple[bytes, int] | None" = None
    ) -> _RemoteRunner:
        return _RemoteRunner(self.pool, job, resume)

    def worker_stats(self) -> list[dict]:
        return self.pool.worker_stats()

    def probe(self) -> bool:
        return self.pool.probe()

    def telemetry(self) -> dict:
        return {"workers": self.pool.size, "respawns": self.pool.respawns}

    def close(self) -> None:
        self.pool.close()
