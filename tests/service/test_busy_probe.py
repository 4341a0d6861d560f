"""A busy process pool is healthy: ``/health`` must not call it dead.

``scheduler.probe()`` is the call behind ``GET /health``.  A seat whose
dispatch lock a long slice holds is alive and working; the probe counts
it healthy at once instead of waiting for the lock and giving up.  The
``stats`` op waits for busy seats' locks, but all seats share one wait.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from repro.api.fingerprint import graph_fingerprint
from repro.graphs.generators import connected_erdos_renyi
from repro.service.protocol import ServiceRequest
from repro.service.scheduler import EnumerationScheduler
from repro.service.workers import _affinity_index
from tests.conftest import needs_process_backend


def _long_scan(graph) -> ServiceRequest:
    # A diverse scan that finds one answer and then scans for seconds
    # without another: its one slice holds its seat all along.
    return ServiceRequest(
        op="diverse",
        graph=graph,
        cost="fill",
        k=50,
        min_distance=10_000,
        scan_limit=100_000,
    )


async def _until_held(seats) -> None:
    give_up = time.monotonic() + 60.0
    while not all(seat.dispatch_lock.locked() for seat in seats):
        assert time.monotonic() < give_up, "a slice never started"
        await asyncio.sleep(0.01)


@needs_process_backend
def test_probe_is_true_while_a_slice_holds_the_only_seat():
    request = _long_scan(connected_erdos_renyi(18, 0.3, seed=5))

    async def main():
        scheduler = EnumerationScheduler(backend="process", workers=1)
        try:
            seat = scheduler._backend.pool._workers[0]
            job = await scheduler.submit(request)
            await _until_held([seat])
            loop = asyncio.get_running_loop()
            started = time.monotonic()
            healthy = await loop.run_in_executor(None, scheduler.probe)
            waited = time.monotonic() - started
            busy_after = seat.dispatch_lock.locked()
            scheduler.cancel(job)
            await job.drain()
            return healthy, waited, busy_after
        finally:
            await scheduler.close()

    healthy, waited, busy_after = asyncio.run(main())
    assert busy_after, "the slice ended before the probe could see it busy"
    assert healthy
    assert waited < 1.0


@needs_process_backend
def test_stats_waits_once_for_two_busy_seats(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    first = connected_erdos_renyi(18, 0.3, seed=5)
    # A second graph whose preferred seat is the other one of two.
    home = _affinity_index(graph_fingerprint(first), 2)
    second = next(
        graph
        for seed in itertools.count(6)
        for graph in [connected_erdos_renyi(18, 0.3, seed=seed)]
        if _affinity_index(graph_fingerprint(graph), 2) != home
    )

    async def main():
        scheduler = EnumerationScheduler(backend="process", workers=2)
        try:
            seats = list(scheduler._backend.pool._workers)
            scans = [
                await scheduler.submit(_long_scan(graph))
                for graph in (first, second)
            ]
            await _until_held(seats)
            started = time.monotonic()
            job = await scheduler.submit(ServiceRequest(op="stats"))
            frames = await asyncio.wait_for(job.drain(), timeout=60)
            waited = time.monotonic() - started
            busy_after = all(seat.dispatch_lock.locked() for seat in seats)
            for scan in scans:
                scheduler.cancel(scan)
                await scan.drain()
            return frames, waited, busy_after
        finally:
            await scheduler.close()

    frames, waited, busy_after = asyncio.run(main())
    assert busy_after, "a slice ended before the stats job could see it busy"
    assert [frame["type"] for frame in frames] == ["service-stats"]
    assert [row.get("busy") for row in frames[0]["workers"]] == [True, True]
    # One shared 2 s wait; a wait per seat would take 4 s.
    assert waited < 3.0
