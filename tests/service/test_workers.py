"""Unit tests for the multi-process worker backend (``service.workers``).

The differential suite holds the process backend to byte-identity under
concurrency and crashes; this file pins the pool machinery itself —
affinity routing, spill, seat respawn, the pipe round trips, and the
``stats`` observability surface on both backends.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time

import pytest

from repro.api.fingerprint import graph_fingerprint
from repro.graphs.generators import connected_erdos_renyi, paper_example_graph
from repro.service import (
    ServerThread,
    ServiceClient,
    ServiceStatsFrame,
    WorkerPool,
)
from repro.service.protocol import ProtocolError, ServiceRequest, new_token_key
from repro.service.workers import (
    DEFAULT_SPILL_THRESHOLD,
    _affinity_index,
)


@contextlib.contextmanager
def pool(workers: int, **kwargs):
    p = WorkerPool(workers, new_token_key(), **kwargs)
    try:
        yield p
    finally:
        p.close()


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_affinity_index_is_consistent_and_in_range():
    fps = [graph_fingerprint(connected_erdos_renyi(8, 0.4, seed=s)) for s in range(6)]
    for size in (1, 2, 3, 8):
        for fp in fps:
            i = _affinity_index(fp, size)
            assert 0 <= i < size
            assert i == _affinity_index(fp, size)  # pure in the fingerprint
    # Not everything collapses onto one worker.
    assert len({_affinity_index(fp, 8) for fp in fps}) > 1


def test_route_prefers_affinity_then_spills_under_load():
    with pool(2) as p:
        fp = graph_fingerprint(paper_example_graph())
        preferred_seat = _affinity_index(fp, 2)
        # Below the spill threshold, warmth wins: every placement sticks
        # to the fingerprint's preferred seat even as its load grows.
        placed = [p.route(fp) for _ in range(DEFAULT_SPILL_THRESHOLD)]
        assert all(h.index == preferred_seat for h in placed)
        # Now the preferred seat is `threshold` jobs busier than the idle
        # one: load beats warmth and the next placement spills.
        spilled = p.route(fp)
        assert spilled.index != preferred_seat
        # Draining the preferred seat restores affinity routing.
        for handle in placed:
            p.release(handle)
        assert p.route(fp).index == preferred_seat


def test_route_rejects_closed_pool():
    p = WorkerPool(1, new_token_key())
    p.close()
    with pytest.raises(RuntimeError, match="closed"):
        p.route("deadbeef")


# ----------------------------------------------------------------------
# Pipe round trips and crash respawn
# ----------------------------------------------------------------------
def test_ping_and_stats_round_trips():
    with pool(1) as p:
        handle = p.route("00")
        kind, pid = handle.round_trip("ping")
        assert kind == "pong" and pid == handle.process.pid
        rows = p.worker_stats()
        assert len(rows) == 1
        row = rows[0]
        assert row["alive"] and row["pid"] == pid
        assert row["active_jobs"] == 1 and row["respawns"] == 0
        assert row["sessions"] == {}  # no job ever ran: cold worker


def test_crash_respawns_seat_with_bumped_generation():
    with pool(2) as p:
        victim = p._workers[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10)
        p.report_crash(victim)
        assert p.respawns == 1
        fresh = p._workers[0]
        assert fresh is not victim
        assert fresh.generation == victim.generation + 1
        assert fresh.round_trip("ping")[0] == "pong"
        # Idempotent: a second report for the same dead handle is a no-op.
        p.report_crash(victim)
        assert p.respawns == 1 and p._workers[0] is fresh


def test_route_revives_dead_seat_lazily():
    """A seat that died without anyone calling ``report_crash`` (e.g. no
    job was pinned to it) is revived on the next routing decision."""
    with pool(1) as p:
        dead = p._workers[0]
        os.kill(dead.process.pid, signal.SIGKILL)
        dead.process.join(timeout=10)
        handle = p.route("00")
        assert handle is not dead and handle.alive
        assert p.respawns == 1


# ----------------------------------------------------------------------
# The stats op, end to end, on both backends
# ----------------------------------------------------------------------
def test_stats_request_validation():
    with pytest.raises(ProtocolError, match="neither graph nor token"):
        ServiceRequest(op="stats", graph=paper_example_graph())


def test_service_stats_reports_warm_sessions(backend):
    graph = paper_example_graph()
    with ServerThread(backend=backend, workers=2) as handle:
        client = ServiceClient(*handle.address, timeout=60.0)
        cold = client.service_stats()
        assert isinstance(cold, ServiceStatsFrame)
        assert cold.backend == backend
        assert len(cold.workers) == (1 if backend == "inprocess" else 2)

        # preprocess=False keeps the session context keyed by the request
        # graph's own fingerprint (preprocessing would cache the reduced
        # graph's instead, which is what affinity routing warms but not
        # what this test greps for).
        client.top(graph, "fill", k=2, preprocess=False)
        client.top(graph, "fill", k=2, preprocess=False)  # warm repeat

        warm = client.service_stats()
        fp = graph_fingerprint(graph)
        warm_rows = [
            row
            for row in warm.workers
            if any(
                fp in session.get("warm", ())
                for session in row.get("sessions", {}).values()
            )
        ]
        # Affinity routing pins both requests to ONE worker: exactly one
        # seat holds the warm context, and its cache saw a prepared-table
        # hit on the repeat.
        assert len(warm_rows) == 1
        caches = [
            session["cache"]
            for session in warm_rows[0]["sessions"].values()
            if fp in session.get("warm", ())
        ]
        assert caches[0]["contexts"] >= 1
        assert warm.scheduler["completed"] >= 2


@pytest.mark.parametrize("cached", [False, True])
def test_process_backend_hashes_the_request_graph_once(
    tmp_path, monkeypatch, cached
):
    """The parent hashes a fresh request's graph once (the answers probe
    and the routing share it), and the dispatch spec carries the value
    to the worker, whose job hashes the graph no more."""
    import asyncio
    import multiprocessing
    import threading

    import repro.api.session as session_mod
    import repro.service.scheduler as scheduler_mod
    from repro.service.protocol import encode_frame
    from repro.service.scheduler import EnumerationScheduler
    from repro.service.workers import WorkerHandle, _worker_main

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    graph = connected_erdos_renyi(10, 0.35, seed=0)
    hashed = []
    original = scheduler_mod.graph_fingerprint

    def counting(g):
        hashed.append(len(g))
        return original(g)

    specs = []
    round_trip = WorkerHandle.round_trip

    def spying(handle, kind, *rest):
        if kind == "slice" and rest[2] is not None:
            specs.append(rest[2])
        return round_trip(handle, kind, *rest)

    monkeypatch.setattr(scheduler_mod, "graph_fingerprint", counting)
    monkeypatch.setattr(session_mod, "graph_fingerprint", counting)
    monkeypatch.setattr(WorkerHandle, "round_trip", spying)
    request = ServiceRequest(op="top", graph=graph, cost="fill", k=3)

    async def main():
        scheduler = EnumerationScheduler(
            backend="process",
            workers=1,
            cache_dir=str(tmp_path) if cached else None,
        )
        try:
            job = await scheduler.submit(request)
            return await job.drain()
        finally:
            await scheduler.close()

    frames = asyncio.run(main())
    assert frames[-1]["type"] == "stats"
    assert hashed == [len(graph)]
    assert [spec["fingerprint"] for spec in specs] == [original(graph)]

    # The worker side, driven in a thread over a pipe so its hashes are
    # counted here: the spec's fingerprint spares the job its own hash.
    hashed.clear()
    parent, child = multiprocessing.Pipe()
    worker = threading.Thread(
        target=_worker_main, args=(child, new_token_key(), 0), daemon=True
    )
    worker.start()
    try:
        parent.send((1, "slice", 1, 3, specs[0]))
        _seq, reply = parent.recv()
    finally:
        parent.send((None, "shutdown"))
        worker.join(timeout=60)
        parent.close()
    assert reply[0] == "frames"
    answers = [f for f in reply[2] if f["type"] == "answer"]
    assert [encode_frame(f) for f in answers] == [
        encode_frame(f) for f in frames if f["type"] == "answer"
    ]
    assert len(graph) not in hashed


def test_worker_stats_rows_survive_a_busy_worker():
    """A probe that cannot get the dispatch lock degrades to a
    parent-side row flagged ``busy`` instead of blocking the stats job
    behind a long slice."""
    with pool(1) as p:
        handle = p.route("00")
        with handle.dispatch_lock:  # simulate an in-flight slice
            t0 = time.monotonic()
            rows = p.worker_stats()
            assert time.monotonic() - t0 < 10
        assert rows[0].get("busy") is True
        assert rows[0]["pid"] == handle.process.pid
