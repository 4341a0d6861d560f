"""Deadlines run on the monotonic clock, not wall time (ISSUE 9).

An NTP step (or an operator touching the system clock) must not expire
— or extend — a running job's deadline.  These tests make ``time.time``
leap forward by ~17 minutes on every call; a wall-clock deadline
implementation would cut the very first slice short, while the
monotonic implementation finishes the job normally on both backends.
"""

from __future__ import annotations

import asyncio
import itertools
import time

import pytest

from repro.graphs.generators import connected_erdos_renyi
from repro.service.protocol import ServiceRequest
from repro.service.scheduler import EnumerationScheduler
from tests.conftest import needs_process_backend


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def leaping_wall_clock(monkeypatch):
    """Every ``time.time()`` call jumps 1000 s forward from a base far
    in the future.  ``time.monotonic`` is left untouched."""
    base = time.time() + 10_000.0
    calls = itertools.count()
    monkeypatch.setattr(time, "time", lambda: base + 1000.0 * next(calls))


def _submit_and_drain(backend):
    graph = connected_erdos_renyi(10, 0.35, seed=0)

    async def main():
        scheduler = EnumerationScheduler(
            backend=backend, workers=1, slice_answers=2
        )
        try:
            job = await scheduler.submit(
                ServiceRequest(
                    op="top",
                    graph=graph,
                    cost="fill",
                    k=6,
                    deadline=60.0,
                )
            )
            return await job.drain()
        finally:
            await scheduler.close()

    return run(main())


def test_deadline_ignores_wall_clock_steps(leaping_wall_clock, backend):
    frames = _submit_and_drain(backend)
    terminal = frames[-1]
    # Wall time advanced by dozens of "minutes" during the job; the
    # 60-second deadline must still be nowhere near expiry.
    assert terminal["type"] == "stats", terminal
    assert terminal["emitted"] == 6
    assert len([f for f in frames if f.get("type") == "answer"]) == 6


@needs_process_backend
def test_remote_runner_reply_window_is_monotonic(leaping_wall_clock):
    """The parent-side slice spec hands the worker its remaining budget;
    computed against wall time it would collapse to the 1e-6 floor after
    one clock step and the worker would stop after a single answer."""
    frames = _submit_and_drain("process")
    assert frames[-1]["type"] == "stats"
    assert frames[-1]["emitted"] == 6
