"""The service differential harness — the PR's acceptance criterion.

N ≥ 8 concurrent clients over mixed graphs, costs, and kernels each
receive ``answer`` frame byte sequences **bit-identical** to what a
serial ``Session.stream`` run of the same request serializes to —
including across a mid-stream pause (in-band cancel) and a resume via
checkpoint token on a brand-new connection, and after a *hard* client
disconnect replayed from a previously held token.

Bit-identity is checked at the byte level: the raw NDJSON lines the
client read off the socket against
:func:`repro.service.protocol.serialize_answers` over the serial run.

The whole suite runs twice — once against the in-process backend (the
oracle) and once against the multi-process worker backend — and adds a
worker-crash scenario: a worker SIGKILLed mid-stream is respawned and
the job replayed from its last acknowledged checkpoint, with the
client-visible bytes still identical to an uninterrupted serial run.
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
import time

import pytest

from repro.api import Session
from repro.graphs.generators import (
    bowtie_graph,
    connected_erdos_renyi,
    grid_graph,
    paper_example_graph,
    ring_of_cycles,
)
from repro.service import (
    AnswerFrame,
    ServerThread,
    ServiceClient,
    ServiceRequest,
    serialize_answers,
)
from tests.conftest import needs_process_backend

#: (name, graph factory, cost, kernel) — ten mixed workloads, at least
#: eight of which run concurrently in the main differential test.  The
#: bowtie and ring instances route through the preprocessing pipeline
#: (composed streams); the grid exercises tuple vertex labels.
WORKLOADS = [
    ("gnp-a-fill", lambda: connected_erdos_renyi(10, 0.35, seed=0), "fill", "bitset"),
    ("gnp-a-width", lambda: connected_erdos_renyi(10, 0.35, seed=0), "width", "sets"),
    ("gnp-b-fill", lambda: connected_erdos_renyi(10, 0.35, seed=2), "fill", "bitset"),
    ("gnp-c-width", lambda: connected_erdos_renyi(9, 0.4, seed=3), "width", "bitset"),
    ("grid-3x3-fill", lambda: grid_graph(3, 3), "fill", "bitset"),
    ("grid-3x3-width", lambda: grid_graph(3, 3), "width", "sets"),
    ("paper-fill", paper_example_graph, "fill", "bitset"),
    ("bowtie-width", lambda: bowtie_graph(4), "width", "bitset"),
    ("ring-c5-fill", lambda: ring_of_cycles(2, 5), "fill", "bitset"),
    ("gnp-d-fill", lambda: connected_erdos_renyi(12, 0.3, seed=6), "fill", "sets"),
]

K = 8


def serial_lines(graph, cost, k, kernel):
    """Reference bytes: a serial ``Session.stream`` run, serialized."""
    session = Session(kernel=kernel)
    stream = session.stream(graph, cost)
    try:
        results = list(itertools.islice(stream, k))
    finally:
        stream.close()
    return serialize_answers(results)


@pytest.fixture(scope="module")
def server(backend):
    # Two worker slots, small slices: with 8+ admitted jobs this forces
    # heavy interleaving — the adversarial regime for sequence mixing.
    with ServerThread(backend=backend, workers=2, slice_answers=2) as handle:
        yield handle


def test_concurrent_clients_bit_identical_to_serial(server):
    assert len(WORKLOADS) >= 8
    outcomes: dict[str, list[bytes]] = {}
    errors: list[tuple[str, BaseException]] = []
    barrier = threading.Barrier(len(WORKLOADS))

    def run_client(name, factory, cost, kernel):
        try:
            client = ServiceClient(*server.address, timeout=120.0)
            barrier.wait(timeout=30)  # all requests hit the server at once
            result = client.top(factory(), cost, k=K, kernel=kernel)
            outcomes[name] = list(result.answer_lines)
        except BaseException as exc:
            errors.append((name, exc))
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [
        threading.Thread(target=run_client, args=spec, name=spec[0])
        for spec in WORKLOADS
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors
    for name, factory, cost, kernel in WORKLOADS:
        expected = serial_lines(factory(), cost, K, kernel)
        assert outcomes[name] == expected, (
            f"{name}: streamed bytes diverged from the serial reference"
        )


def test_pause_resume_concatenation_bit_identical(backend):
    """Mid-stream in-band cancel, then resume on a NEW connection: the
    concatenated answer bytes equal one uninterrupted serial run.

    A dedicated tight-backpressure server (frame buffer of 2) makes the
    pause deterministic: while the client withholds reads, the producer
    can sit at most a few frames ahead, so on graphs with enough answers
    the cancel always lands mid-enumeration — never after a drain.
    """
    cases = [
        (lambda: connected_erdos_renyi(12, 0.3, seed=5), "fill", "bitset", 3),
        (lambda: connected_erdos_renyi(12, 0.3, seed=6), "fill", "sets", 4),
        (lambda: ring_of_cycles(2, 5), "fill", "bitset", 2),  # 25 answers
    ]
    with ServerThread(
        backend=backend, workers=1, slice_answers=1, max_pending_frames=2
    ) as handle:
        for factory, cost, kernel, pause_after in cases:
            graph = factory()
            client = ServiceClient(*handle.address, timeout=60.0)
            stream = client.open(
                ServiceRequest(
                    op="enumerate", graph=graph, cost=cost, kernel=kernel
                )
            )
            first: list[AnswerFrame] = []
            for frame in stream:
                if isinstance(frame, AnswerFrame):
                    first.append(frame)
                    if len(first) == pause_after:
                        stream.cancel()
            token = stream.terminal.checkpoint
            assert token is not None, (
                f"{cost}/{kernel}: stream drained before the cancel landed"
            )
            # A fresh connection — and a fresh socket — continues it.
            second = client.resume(token, k=4, kernel=kernel)
            got = [a.raw for a in first] + list(second.answer_lines)
            expected = serial_lines(graph, cost, len(first) + 4, kernel)
            assert got == expected


def test_hard_disconnect_then_resume_from_held_token(server):
    """A client that crashes mid-stream resumes from the last token it
    durably held (the previous page's checkpoint): the replayed suffix
    is bit-identical, unaffected by the crashed job server-side."""
    graph = connected_erdos_renyi(12, 0.3, seed=5)
    client = ServiceClient(*server.address, timeout=60.0)

    page = client.top(graph, "fill", k=3)
    token = page.checkpoint
    assert token is not None

    # Resume, read a couple of answers, then crash (no cancel frame).
    stream = client.open(ServiceRequest(op="enumerate", token=token))
    seen = 0
    for frame in stream:
        if isinstance(frame, AnswerFrame):
            seen += 1
            if seen == 2:
                stream.abort()
                break

    # Replay from the SAME held token on a new connection.
    replay = client.resume(token, k=5)
    got = list(page.answer_lines) + list(replay.answer_lines)
    assert got == serial_lines(graph, "fill", 3 + 5, "bitset")

    # The crashed job wound down: the scheduler is fully idle again.
    import time

    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if server.scheduler.stats()["active"] == 0:
            break
        time.sleep(0.02)
    assert server.scheduler.stats()["active"] == 0


def test_concurrent_pause_resume_storm(server):
    """Eight clients all pausing and resuming concurrently: every
    concatenation stays exact under maximal checkpoint churn."""
    specs = [spec for spec in WORKLOADS[:8]]
    outcomes: dict[str, tuple[list[bytes], int]] = {}
    errors: list[tuple[str, BaseException]] = []

    def run_client(name, factory, cost, kernel):
        try:
            graph = factory()
            client = ServiceClient(*server.address, timeout=120.0)
            first = client.top(graph, cost, k=3, kernel=kernel)
            lines = list(first.answer_lines)
            if first.checkpoint is not None and not first.exhausted:
                second = client.resume(first.checkpoint, k=3, kernel=kernel)
                lines += list(second.answer_lines)
            outcomes[name] = (lines, len(lines))
        except BaseException as exc:
            errors.append((name, exc))

    threads = [
        threading.Thread(target=run_client, args=spec) for spec in specs
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors
    for name, factory, cost, kernel in specs:
        lines, count = outcomes[name]
        assert lines == serial_lines(factory(), cost, count, kernel)


# ----------------------------------------------------------------------
# Worker-crash recovery (process backend only)
# ----------------------------------------------------------------------
def _crash_server():
    """One worker, one slot, tight backpressure: the SIGKILL below always
    lands while the job is mid-stream, and the respawned seat must pick
    the job back up from its last acknowledged checkpoint."""
    return ServerThread(
        backend="process", workers=1, slice_answers=1, max_pending_frames=2
    )


@needs_process_backend
def test_worker_crash_midstream_bit_identical():
    """SIGKILL the only worker mid-enumeration: the job re-dispatches to
    the respawned worker from the last acknowledged slice checkpoint and
    the client's answer bytes stay identical to an uninterrupted serial
    run — the crash is invisible on the wire."""
    graph = ring_of_cycles(2, 5)  # 25 answers; the kill lands well inside
    k = 12
    with _crash_server() as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        pid = client.service_stats().workers[0]["pid"]
        stream = client.open(
            ServiceRequest(op="top", graph=graph, cost="fill", k=k)
        )
        lines: list[bytes] = []
        killed = False
        for frame in stream:
            if isinstance(frame, AnswerFrame):
                lines.append(frame.raw)
                if len(lines) == 4 and not killed:
                    os.kill(pid, signal.SIGKILL)
                    killed = True
        assert killed
        assert lines == serial_lines(graph, "fill", k, "bitset"), (
            "answer bytes diverged across the worker crash"
        )
        stats = client.service_stats()
        assert stats.backend == "process"
        assert any(row.get("respawns", 0) >= 1 for row in stats.workers), (
            "the killed worker seat was never respawned"
        )
        assert any(row.get("alive") for row in stats.workers)


@needs_process_backend
def test_worker_crash_replay_only_op_bit_identical():
    """Crash recovery for a non-pausable op (``diverse``): no checkpoint
    exists, so the re-dispatched job deterministically replays from rank
    0 and skips the answers the client already holds — the delivered
    bytes still match an uninterrupted run of the same request."""
    graph = ring_of_cycles(2, 5)
    request = ServiceRequest(op="diverse", graph=graph, cost="fill", k=6)
    with _crash_server() as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        expected = list(client.collect(request).answer_lines)
        pid = client.service_stats().workers[0]["pid"]
        stream = client.open(request)
        lines: list[bytes] = []
        killed = False
        for frame in stream:
            if isinstance(frame, AnswerFrame):
                lines.append(frame.raw)
                if len(lines) == 2 and not killed:
                    os.kill(pid, signal.SIGKILL)
                    killed = True
        assert killed
        assert lines == expected, (
            "replayed diverse bytes diverged across the worker crash"
        )
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if handle.scheduler.stats()["active"] == 0:
                break
            time.sleep(0.02)
        assert handle.scheduler.stats()["active"] == 0
