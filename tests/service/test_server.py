"""Server/transport tests: connections, failure paths, resumption.

Each test runs a real :class:`~repro.service.server.EnumerationServer`
on an ephemeral port (via :class:`~repro.service.server.ServerThread`)
and drives it with the blocking :class:`~repro.service.ServiceClient` —
the exact deployment shape of ``repro serve`` / ``repro submit``.
"""

from __future__ import annotations

import itertools
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.api import Session
from repro.gateway import GatewayClient
from repro.graphs.generators import (
    connected_erdos_renyi,
    grid_graph,
    paper_example_graph,
)
from repro.service import (
    AnswerFrame,
    CancelledFrame,
    DeadlineFrame,
    ErrorFrame,
    ServerThread,
    ServiceClient,
    ServiceError,
    ServiceRequest,
    StatsFrame,
    serialize_answers,
)


@pytest.fixture(scope="module")
def server():
    with ServerThread(slice_answers=2) as handle:
        yield handle


@pytest.fixture()
def client(server):
    return ServiceClient(*server.address, timeout=30.0)


def serial_lines(graph, cost, k):
    session = Session()
    stream = session.stream(graph, cost)
    try:
        results = list(itertools.islice(stream, k))
    finally:
        stream.close()
    return serialize_answers(results)


def wait_for_idle(server, timeout=10.0):
    """Block until the scheduler has wound down every admitted job."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.scheduler.stats()["active"] == 0:
            return server.scheduler.stats()
        time.sleep(0.02)
    raise AssertionError(
        f"scheduler still busy after {timeout}s: {server.scheduler.stats()}"
    )


class TestHappyPath:
    def test_top_streams_exact_bytes(self, client):
        graph = connected_erdos_renyi(10, 0.35, seed=0)
        result = client.top(graph, "fill", k=6)
        assert isinstance(result.terminal, StatsFrame)
        assert list(result.answer_lines) == serial_lines(graph, "fill", 6)

    def test_tuple_labelled_graph_round_trips(self, client):
        graph = grid_graph(3, 3)
        result = client.top(graph, "width", k=4)
        assert list(result.answer_lines) == serial_lines(graph, "width", 4)
        assert all(
            isinstance(v, tuple)
            for answer in result.answers
            for bag in answer.bags
            for v in bag
        )

    def test_pagination_via_checkpoint_token(self, client):
        graph = connected_erdos_renyi(10, 0.35, seed=2)
        first = client.top(graph, "fill", k=4)
        assert first.checkpoint is not None
        second = client.resume(first.checkpoint, k=4)
        got = list(first.answer_lines) + list(second.answer_lines)
        assert got == serial_lines(graph, "fill", 8)
        assert [a.rank for a in second.answers] == [4, 5, 6, 7]

    def test_diverse_and_decompositions(self, client):
        graph = paper_example_graph()
        session = Session()

        diverse = client.diverse(graph, "fill", k=2, min_distance=2)
        expected = session.diverse(graph, "fill", k=2, min_distance=2)
        assert len(diverse.answers) == len(expected.results)
        assert [a.cost for a in diverse.answers] == [
            t.cost for t in expected.results
        ]

        decomp = client.decompositions(graph, "width", k=5)
        expected = session.decompositions(graph, "width", k=5)
        assert [a.rank for a in decomp.answers] == [
            r.rank for r in expected.results
        ]

    def test_enumerate_exhausts_small_space(self, client):
        result = client.enumerate(paper_example_graph(), "fill")
        assert result.exhausted
        assert isinstance(result.terminal, StatsFrame)
        assert result.terminal.emitted == len(result.answers) == 2


class TestFailurePaths:
    def test_malformed_frame_gets_in_band_error(self, client):
        stream = client.send_raw(b"this is not json\n")
        frames = list(stream)
        assert len(frames) == 1
        assert isinstance(frames[0], ErrorFrame)
        assert frames[0].code == "bad-request"

    def test_structurally_invalid_request_gets_in_band_error(self, client):
        stream = client.send_raw(b'{"type":"request","op":"warp"}\n')
        frames = list(stream)
        assert isinstance(frames[0], ErrorFrame)

    def test_server_survives_malformed_frames(self, client, server):
        for raw in (b"\n", b"[]\n", b'{"type":"request"}\n', b"{broken\n"):
            list(client.send_raw(raw))
        result = client.top(paper_example_graph(), "fill", k=2)
        assert isinstance(result.terminal, StatsFrame)
        wait_for_idle(server)

    def test_unknown_cost_is_in_band_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.top(paper_example_graph(), cost="nope", k=2)
        assert excinfo.value.frame.code == "bad-request"

    def test_client_disconnect_mid_stream_releases_slot(self, client, server):
        graph = connected_erdos_renyi(12, 0.3, seed=5)
        stream = client.open(
            ServiceRequest(op="enumerate", graph=graph, cost="fill")
        )
        seen = 0
        for frame in stream:
            if isinstance(frame, AnswerFrame):
                seen += 1
            if seen == 2:
                stream.abort()  # hard close, no cancel frame
                break
        stats = wait_for_idle(server)
        assert stats["active"] == 0
        # The slot is really free: a fresh job is served to completion.
        result = client.top(graph, "fill", k=3)
        assert list(result.answer_lines) == serial_lines(graph, "fill", 3)

    def test_in_band_cancel_returns_cancelled_frame_with_token(
        self, client, server
    ):
        # 4,141 answers over seconds, so the cancel lands mid-stream
        # however fast the loop gets.
        graph = connected_erdos_renyi(16, 0.3, seed=5)
        stream = client.open(
            ServiceRequest(op="enumerate", graph=graph, cost="fill")
        )
        answers = []
        for frame in stream:
            if isinstance(frame, AnswerFrame):
                answers.append(frame)
                if len(answers) == 2:
                    stream.cancel()
        assert isinstance(stream.terminal, CancelledFrame)
        assert stream.terminal.checkpoint is not None
        wait_for_idle(server)
        # The cancel token resumes the exact sequence on a new connection.
        more = client.resume(stream.terminal.checkpoint, k=3)
        got = [a.raw for a in answers] + list(more.answer_lines)
        assert got == serial_lines(graph, "fill", len(answers) + 3)

    def test_immediate_disconnect_without_request(self, client, server):
        sock = socket.create_connection(client_address(client), timeout=5)
        sock.close()
        result = client.top(paper_example_graph(), "fill", k=1)
        assert isinstance(result.terminal, StatsFrame)
        wait_for_idle(server)


def client_address(client):
    return (client.host, client.port)


class TestDeadlines:
    def test_deadline_frame_carries_resumable_token(self, client, server):
        # 4,000+ answers: seconds of enumeration, far past the deadline.
        graph = connected_erdos_renyi(16, 0.3, seed=5)
        result = client.enumerate(graph, "fill", deadline=0.1)
        assert isinstance(result.terminal, DeadlineFrame)
        assert result.checkpoint is not None
        emitted = len(result.answers)
        assert result.terminal.emitted == emitted
        # Resume on a NEW connection: concatenation is bit-identical.
        more = client.resume(result.checkpoint, k=4)
        got = list(result.answer_lines) + list(more.answer_lines)
        assert got == serial_lines(graph, "fill", emitted + 4)
        wait_for_idle(server)

    def test_generous_deadline_does_not_truncate(self, client):
        result = client.enumerate(paper_example_graph(), "fill", deadline=60.0)
        assert isinstance(result.terminal, StatsFrame)
        assert result.exhausted


class TestConcurrentClients:
    def test_parallel_clients_each_get_exact_sequences(self, client, server):
        cases = [
            (connected_erdos_renyi(10, 0.35, seed=0), "fill"),
            (connected_erdos_renyi(10, 0.35, seed=100), "width"),
            (grid_graph(3, 3), "fill"),
            (paper_example_graph(), "width"),
        ]
        outcomes: dict[int, list[bytes]] = {}
        errors: list[BaseException] = []

        def worker(i, graph, cost):
            try:
                local = ServiceClient(client.host, client.port, timeout=60.0)
                outcomes[i] = list(local.top(graph, cost, k=6).answer_lines)
            except BaseException as exc:  # surfaces in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i, g, c))
            for i, (g, c) in enumerate(cases)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        for i, (graph, cost) in enumerate(cases):
            assert outcomes[i] == serial_lines(graph, cost, 6)
        wait_for_idle(server)


class TestForegroundServe:
    @pytest.mark.skipif(
        sys.platform == "win32", reason="stops the server with SIGTERM"
    )
    def test_serve_entry_point_binds_and_serves(self, tmp_path):
        """``repro serve`` announces both doors on a pipe (no
        PYTHONUNBUFFERED), serves them, and exits 0 on SIGTERM."""
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--http", "0", "--backend", "inprocess",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        lines: queue.Queue = queue.Queue()

        def read() -> None:
            for line in proc.stdout:
                lines.put(line)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        try:
            tcp, http = (lines.get(timeout=30) for _ in range(2))
            assert tcp.startswith("repro service listening on "), tcp
            assert http.startswith("repro http gateway listening on "), http
            tcp_port, http_port = (
                int(line.rsplit(":", 1)[1]) for line in (tcp, http)
            )
            client = ServiceClient("127.0.0.1", tcp_port, timeout=30.0)
            result = client.top(paper_example_graph(), "fill", k=2)
            assert isinstance(result.terminal, StatsFrame)
            health = GatewayClient("127.0.0.1", http_port, timeout=30.0).health()
            assert health.status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            assert "shutting down" in lines.get(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            reader.join(timeout=10)
            proc.stdout.close()


class TestFrameLimits:
    def test_oversized_request_gets_in_band_error(self, monkeypatch):
        import repro.service.server as server_mod

        monkeypatch.setattr(server_mod, "MAX_FRAME_BYTES", 4096)
        with ServerThread(workers=1) as handle:
            client = ServiceClient(*handle.address, timeout=30.0)
            big = b'{"type":"request","op":"top","pad":"' + b"x" * 8192 + b'"}\n'
            frames = list(client.send_raw(big))
            assert isinstance(frames[0], ErrorFrame)
            assert "4096-byte frame limit" in frames[0].message
            # The server survives and serves the next request normally.
            result = client.top(paper_example_graph(), "fill", k=2)
            assert isinstance(result.terminal, StatsFrame)

    def test_large_graph_fits_default_limit(self, client):
        # ~3000 edges serializes far beyond asyncio's 64 KiB default, and
        # must be accepted under the server's raised limit.
        from repro.graphs.generators import erdos_renyi

        graph = erdos_renyi(80, 0.95, seed=1)  # near-complete: chordal-ish
        assert graph.num_edges() > 2500
        result = client.top(graph, "width", k=1)
        assert isinstance(result.terminal, StatsFrame)
        assert len(result.answers) == 1


class TestDecompositionTrees:
    def test_answers_carry_distinct_tree_structures(self, client):
        graph = paper_example_graph()
        result = client.decompositions(graph, "width", k=10)
        assert len(result.answers) == 10
        for answer in result.answers:
            assert answer.tree is not None
            bags, edges = answer.tree
            assert len(edges) == max(len(bags) - 1, 0)
            for a, b in edges:
                assert 0 <= a < len(bags) and 0 <= b < len(bags)
        # Several clique trees share one triangulation (same bag set);
        # the tree field is what tells them apart.
        distinct_frames = {a.raw for a in result.answers}
        assert len(distinct_frames) == 10


class TestShutdownWithLiveClient:
    def test_stopping_server_delivers_cancelled_frame_to_live_stream(self):
        graph = connected_erdos_renyi(12, 0.3, seed=5)
        handle = ServerThread(workers=1, slice_answers=1).start()
        try:
            client = ServiceClient(*handle.address, timeout=30.0)
            stream = client.open(
                ServiceRequest(op="enumerate", graph=graph, cost="fill")
            )
            first = next(stream)
            assert isinstance(first, AnswerFrame)
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            frames = list(stream)
            stopper.join(timeout=30)
            # The live client got a proper terminal frame, not a dead socket.
            assert isinstance(stream.terminal, CancelledFrame)
            assert stream.terminal.checkpoint is not None
            answers = [f for f in frames if isinstance(f, AnswerFrame)]
            got = [first.raw] + [a.raw for a in answers]
            assert got == serial_lines(graph, "fill", len(got))
        finally:
            handle.stop()


class TestShutdownRace:
    def test_submit_after_scheduler_close_gets_in_band_error(self):
        with ServerThread(workers=1) as handle:
            client = ServiceClient(*handle.address, timeout=30.0)
            # Force the shutdown race: the listener still accepts, but the
            # scheduler refuses admissions.
            handle.scheduler._closed = True
            with pytest.raises(ServiceError) as excinfo:
                client.top(paper_example_graph(), "fill", k=1)
            assert excinfo.value.frame.code == "shutting-down"


class TestOneHost:
    def test_stop_closes_the_scheduler_once_and_every_door(self, backend):
        """The host owns the scheduler: stopping a ServerThread closes it
        exactly once, both listeners refuse connections afterwards, and
        no worker seat outlives it."""
        handle = ServerThread(backend=backend, workers=1).start()
        scheduler = handle.scheduler
        close = scheduler.close
        closes = []

        async def counting_close():
            closes.append(threading.get_ident())
            await close()

        scheduler.close = counting_close
        client = ServiceClient(*handle.address, timeout=60.0)
        assert isinstance(
            client.top(paper_example_graph(), "fill", k=2).terminal, StatsFrame
        )
        seats = []
        if backend == "process":
            seats = [worker.process for worker in scheduler.backend.pool._workers]
        handle.stop()

        assert len(closes) == 1
        for address in (handle.address, handle.http_address):
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5).close()
        assert not [seat.pid for seat in seats if seat.is_alive()]
