"""Gateway endpoints, request validation on both doors, and failure paths.

Each test drives a real :class:`~repro.service.ServerThread` (both doors
over one scheduler) with the blocking
:class:`~repro.gateway.GatewayClient` — the exact deployment shape of
``repro serve --http``.
"""

from __future__ import annotations

import base64
import itertools
import json
import os
import signal
import time

import pytest

from repro.api import Session
from repro.gateway import GatewayClient, GatewayError
from repro.graphs.generators import (
    connected_erdos_renyi,
    paper_example_graph,
)
from repro.graphs.graph import Graph
from repro.service import ServerThread
from repro.service.client import ServiceClient
from repro.service.protocol import (
    ErrorFrame,
    ProtocolError,
    ServiceRequest,
    encode_frame,
    graph_to_wire,
    parse_request,
    serialize_answers,
)
from tests.conftest import needs_process_backend


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("gateway-cache")
    with ServerThread(slice_answers=2, cache_dir=str(cache_dir)) as handle:
        yield handle


@pytest.fixture()
def client(gateway):
    return GatewayClient(*gateway.http_address, timeout=60.0)


def serial_lines(graph, cost, k):
    session = Session()
    stream = session.stream(graph, cost)
    try:
        results = list(itertools.islice(stream, k))
    finally:
        stream.close()
    return serialize_answers(results)


def wait_for_idle(gateway, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if gateway.scheduler.stats()["active"] == 0:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"scheduler still busy after {timeout}s: {gateway.scheduler.stats()}"
    )


class TestObservabilityEndpoints:
    def test_health_reports_backend_and_probe(self, client):
        response = client.health()
        assert response.status == 200
        payload = response.json()
        assert payload["healthy"] is True
        assert payload["backend"] == "inprocess"

    def test_status_exposes_scheduler_counters(self, client):
        payload = client.get_json("/v1/status")
        assert {
            "admitted", "completed", "active", "jobs_by_op",
            "queue_depth", "slots_total", "slots_free", "slice_seconds",
        } <= set(payload)

    def test_metrics_page_has_the_core_series(self, client):
        graph = paper_example_graph()
        client.submit(
            {"op": "top", "graph": graph_to_wire(graph), "cost": "fill",
             "k": 3}
        ).collect()
        page = client.metrics()
        assert "# TYPE repro_jobs_admitted_total counter" in page
        assert 'repro_jobs_by_kind_total{op="top"}' in page
        assert "repro_queue_depth " in page
        assert 'repro_slice_seconds_bucket{le="+Inf"}' in page
        assert "repro_slice_seconds_count " in page
        assert "repro_disk_cache_enabled 1" in page
        assert "repro_disk_cache_hits_total" in page
        assert "repro_disk_cache_misses_total" in page
        assert "repro_kernel" not in page

    def test_metrics_expose_answers_cache_counters(self, client):
        """The answers artifact kind reports per-kind disk counters and
        the scheduler's zero-dispatch serve counter on ``/metrics``."""
        graph = connected_erdos_renyi(10, 0.35, seed=7)
        body = {"op": "top", "graph": graph_to_wire(graph), "cost": "fill",
                "k": 3}
        first = client.submit(body).collect()
        second = client.submit(body).collect()
        # The repeat was served from the stored prefix, byte-identically.
        assert second.answer_lines == first.answer_lines
        assert second.terminal["engine"] == "cache"
        page = client.metrics()
        assert 'repro_disk_cache_stores_total{kind="answers"}' in page
        for line in page.splitlines():
            if line.startswith('repro_disk_cache_hits_total{kind="answers"}'):
                assert int(float(line.split()[-1])) >= 1
                break
        else:
            raise AssertionError("no answers hit series on /metrics")
        for line in page.splitlines():
            if line.startswith("repro_answers_served_total"):
                assert int(float(line.split()[-1])) >= 1
                break
        else:
            raise AssertionError("no answers_served series on /metrics")

    def test_routing_refusals(self, client):
        assert client.request("GET", "/nope").status == 404
        assert client.request("DELETE", "/metrics").status == 405
        assert client.request("GET", "/v1/jobs/999999").status == 404
        assert client.request("POST", "/v1/jobs/999999/cancel").status == 404


class TestSubmission:
    def test_ndjson_stream_matches_serial_bytes(self, client):
        graph = connected_erdos_renyi(10, 0.35, seed=0)
        stream = client.submit(
            {"op": "top", "graph": graph_to_wire(graph), "cost": "fill",
             "k": 5}
        ).collect()
        assert stream.status == 200
        assert stream.headers["content-type"] == "application/x-ndjson"
        assert stream.answer_lines == serial_lines(graph, "fill", 5)
        assert stream.terminal["type"] == "stats"

    def test_sse_stream_matches_serial_bytes(self, client):
        graph = connected_erdos_renyi(10, 0.35, seed=0)
        stream = client.submit(
            {"op": "top", "graph": graph_to_wire(graph), "cost": "fill",
             "k": 5},
            sse=True,
        ).collect()
        assert stream.status == 200
        assert stream.headers["content-type"] == "text/event-stream"
        assert stream.answer_lines == serial_lines(graph, "fill", 5)

    def test_resume_token_round_trips_over_http(self, client):
        graph = connected_erdos_renyi(10, 0.35, seed=2)
        first = client.submit(
            {"op": "top", "graph": graph_to_wire(graph), "cost": "fill",
             "k": 4}
        ).collect()
        token = first.terminal["checkpoint"]
        assert token
        rest = client.submit(
            {"op": "top", "token": token, "k": 4}
        ).collect()
        got = first.answer_lines + rest.answer_lines
        assert got == serial_lines(graph, "fill", 8)

    def test_stats_op_streams_service_stats(self, client):
        stream = client.submit({"op": "stats"}).collect()
        assert stream.terminal["type"] == "service-stats"
        assert stream.terminal["backend"] == "inprocess"
        assert "kernels" not in stream.terminal


class TestValidationFailures:
    def test_malformed_json_body_is_400(self, client, gateway):
        from repro.gateway.client import _Connection

        conn = _Connection(*gateway.http_address, 30.0)
        try:
            conn.send_request(
                "POST", "/v1/jobs", b'{"op": "top", "k": ',
                {"Content-Type": "application/json"},
            )
            status, headers = conn.read_head()
            body = conn.read_body(headers)
        finally:
            conn.close()
        assert status == 400
        assert b"not JSON" in body

    def test_unknown_op_is_400(self, client):
        with pytest.raises(GatewayError) as excinfo:
            client.submit({"op": "frobnicate"})
        assert excinfo.value.status == 400
        assert "unknown op" in str(excinfo.value)

    def test_unknown_field_is_400_and_names_the_field(self, client):
        graph = graph_to_wire(paper_example_graph())
        with pytest.raises(GatewayError) as excinfo:
            client.submit({"op": "top", "graph": graph, "k": 3, "frob": 1})
        assert excinfo.value.status == 400
        assert "frob" in str(excinfo.value)

    def test_missing_required_field_is_400(self, client):
        graph = graph_to_wire(paper_example_graph())
        with pytest.raises(GatewayError) as excinfo:
            client.submit({"op": "top", "graph": graph})
        assert excinfo.value.status == 400
        assert "requires field(s) k" in str(excinfo.value)

    def test_unknown_kernel_is_400(self, client):
        graph = graph_to_wire(paper_example_graph())
        with pytest.raises(GatewayError) as excinfo:
            client.submit(
                {"op": "top", "graph": graph, "k": 3, "kernel": "quantum"}
            )
        assert excinfo.value.status == 400
        assert "kernel" in str(excinfo.value)

    def test_unknown_cost_maps_the_inband_error_to_400(self, client):
        # Semantic failures surface at job start, after the stream
        # opened: the deferred status line turns the first in-band
        # error frame into the HTTP status.
        graph = graph_to_wire(paper_example_graph())
        stream = client.submit(
            {"op": "top", "graph": graph, "cost": "no-such-cost", "k": 3}
        ).collect()
        assert stream.status == 400
        assert stream.terminal["type"] == "error"
        assert stream.terminal["code"] == "bad-request"
        assert "unknown cost" in stream.terminal["message"]

    def test_foreign_token_is_401_token_key_mismatch(self, client):
        forged = base64.b64encode(b"\x5a" * 96).decode("ascii")
        stream = client.submit({"op": "enumerate", "token": forged}).collect()
        assert stream.status == 401
        assert stream.terminal["code"] == "token_key_mismatch"

    def test_truncated_token_stays_400(self, client):
        stub = base64.b64encode(b"abc").decode("ascii")
        stream = client.submit({"op": "enumerate", "token": stub}).collect()
        assert stream.status == 400
        assert stream.terminal["code"] == "bad-request"


def _tcp_refusal(handle, body) -> str:
    client = ServiceClient(*handle.address, timeout=60.0)
    with client.send_raw(encode_frame({"type": "request", **body})) as stream:
        for _frame in stream:
            pass
    terminal = stream.terminal
    assert isinstance(terminal, ErrorFrame), terminal
    assert terminal.code == "bad-request"
    return terminal.message


def _http_refusal(handle, body) -> str:
    client = GatewayClient(*handle.http_address, timeout=60.0)
    with pytest.raises(GatewayError) as excinfo:
        client.submit(body)
    assert excinfo.value.status == 400
    return json.loads(excinfo.value.payload)["error"]


_WIRE_GRAPH = graph_to_wire(paper_example_graph())


class TestOneRequestContract:
    """TCP and HTTP accept and refuse the same requests, in the same
    words: both doors hold a request to ``parse_request``."""

    @pytest.mark.parametrize("door", [_tcp_refusal, _http_refusal],
                             ids=["tcp", "http"])
    @pytest.mark.parametrize(
        "body, fragment",
        [
            pytest.param({"op": "frobnicate"}, "unknown op 'frobnicate'",
                         id="unknown-op"),
            pytest.param(
                {"op": "top", "graph": _WIRE_GRAPH, "k": 3, "bogus_field": 1},
                "op 'top' does not accept field(s) bogus_field",
                id="unknown-field",
            ),
            pytest.param(
                {"op": "diverse", "graph": _WIRE_GRAPH, "k": 3,
                 "per_triangulation": 2},
                "op 'diverse' does not accept field(s) per_triangulation",
                id="field-of-another-op",
            ),
            pytest.param({"op": "top", "graph": _WIRE_GRAPH},
                         "op 'top' requires field(s) k", id="top-without-k"),
            pytest.param(
                {"op": "top", "graph": _WIRE_GRAPH, "k": 3,
                 "kernel": "quantum"},
                "unknown graph kernel 'quantum'",
                id="bad-kernel",
            ),
            pytest.param(
                {"op": "top", "graph": _WIRE_GRAPH, "k": 3, "kernel": "auto"},
                "unknown graph kernel 'auto'; expected one of bitset, sets",
                id="auto-alias",
            ),
            pytest.param(
                {"op": "top", "graph": _WIRE_GRAPH, "k": 3,
                 "deadline": float("nan")},
                "deadline must be > 0, got nan",
                id="nan-deadline",
            ),
            pytest.param(
                {"op": "top", "graph": _WIRE_GRAPH, "k": 3, "answer_budget": 1},
                "op 'top' does not accept field(s) answer_budget",
                id="answer-budget",
            ),
            *(
                pytest.param(
                    {"op": op, "graph": _WIRE_GRAPH, "k": 3, field: value},
                    f"{field} must be >= 1, got {value}",
                    id=f"{field}-{value}",
                )
                for op, field in (("decompositions", "per_triangulation"),
                                  ("diverse", "scan_limit"))
                for value in (-1, 0)
            ),
        ],
    )
    def test_both_doors_refuse_alike(self, gateway, door, body, fragment):
        with pytest.raises(ProtocolError) as contract:
            parse_request({"type": "request", **body})
        message = door(gateway, body)
        assert fragment in message
        assert message == str(contract.value)


def test_zero_answer_top_opens_nothing_on_either_door(backend):
    """A fresh k=0 ``top`` builds no context on either door: its
    terminal reads engine ``none`` with no token.  A k=0 resume still
    hands its token back."""
    graph = connected_erdos_renyi(10, 0.35, seed=0)
    with ServerThread(backend=backend) as handle:
        tcp = ServiceClient(*handle.address, timeout=120.0)
        over_tcp = tcp.collect(
            ServiceRequest(op="top", graph=graph, cost="fill", k=0)
        )
        over_http = GatewayClient(*handle.http_address, timeout=120.0).submit(
            {"op": "top", "graph": graph_to_wire(graph), "cost": "fill",
             "k": 0}
        ).collect()
        stats = tcp.service_stats()
        token = tcp.top(graph, "fill", k=2).checkpoint
        resumed = tcp.resume(token, k=0)

    assert over_tcp.answers == ()
    assert over_tcp.terminal.emitted == 0
    assert over_tcp.terminal.engine == "none"
    assert over_tcp.terminal.next_rank is None
    assert over_tcp.terminal.checkpoint is None
    assert over_http.status == 200
    assert over_http.answer_lines == []
    assert over_http.terminal["type"] == "stats"
    assert over_http.terminal["emitted"] == 0
    assert over_http.terminal["engine"] == "none"
    assert over_http.terminal["checkpoint"] is None
    builds = [
        session["cache"]["builds"]
        for row in stats.workers
        for session in (row.get("sessions") or {}).values()
    ]
    assert sum(builds) == 0
    assert resumed.terminal.emitted == 0
    assert resumed.terminal.next_rank == 2
    assert resumed.checkpoint is not None


def test_disconnected_decompositions_are_a_bad_request_on_both_doors(backend):
    """A decompositions request on a disconnected graph is refused at
    open with the library's one message: a ``bad-request`` frame on TCP
    and HTTP 400 on the gateway, on either backend and whether
    preprocessing is on or off, never an ``internal`` error."""
    two_squares = Graph(
        edges=[(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5)]
    )
    with ServerThread(backend=backend) as handle:
        http = GatewayClient(*handle.http_address, timeout=120.0)
        for preprocess in (True, False):
            with pytest.raises(ValueError) as library:
                Session().decompositions(
                    two_squares, "width", k=3, preprocess=preprocess
                )
            body = {"op": "decompositions", "graph": graph_to_wire(two_squares),
                    "cost": "width", "k": 3, "preprocess": preprocess}
            assert _tcp_refusal(handle, body) == str(library.value)
            over_http = http.submit(body).collect()
            assert over_http.status == 400
            assert over_http.terminal["code"] == "bad-request"
            assert over_http.terminal["message"] == str(library.value)


class TestJobRegistryAndCancel:
    def test_live_job_listed_cancelled_and_token_replayable(
        self, client, gateway
    ):
        graph = connected_erdos_renyi(12, 0.3, seed=6)
        stream = client.submit(
            {"op": "enumerate", "graph": graph_to_wire(graph),
             "cost": "fill", "k": 100_000},
            sse=True,
        )
        events = iter(stream)
        event, _line = next(events)
        assert event == "answer"

        jobs = client.get_json("/v1/jobs")["jobs"]
        assert len(jobs) == 1
        job_id = jobs[0]["id"]
        assert jobs[0]["op"] == "enumerate"
        assert client.get_json(f"/v1/jobs/{job_id}")["id"] == job_id

        response = client.cancel(job_id)
        assert response.status == 202
        for event, _line in events:
            pass
        assert stream.terminal["type"] == "cancelled"
        token = stream.terminal["checkpoint"]
        assert token
        stream.close()
        wait_for_idle(gateway)
        assert client.get_json("/v1/jobs")["jobs"] == []

        # The cancel token resumes the exact sequence over HTTP.
        emitted = len(stream.answer_lines)
        rest = client.submit(
            {"op": "enumerate", "token": token, "k": 3}
        ).collect()
        expected = serial_lines(graph, "fill", emitted + 3)
        assert stream.answer_lines + rest.answer_lines == expected

    def test_mid_sse_disconnect_releases_the_slot_and_replays(
        self, client, gateway
    ):
        graph = connected_erdos_renyi(12, 0.3, seed=6)
        first = client.submit(
            {"op": "top", "graph": graph_to_wire(graph), "cost": "fill",
             "k": 4}
        ).collect()
        token = first.terminal["checkpoint"]

        # Resume over SSE, then vanish mid-stream without a cancel.
        resumed = client.submit(
            {"op": "enumerate", "token": token, "k": 100_000}, sse=True
        )
        events = iter(resumed)
        event, _line = next(events)
        assert event == "answer"
        resumed.abort()

        # The EOF watcher cancels the job: the slot frees up without
        # any client-side handshake.
        wait_for_idle(gateway)

        # The token the client still holds replays the continuation —
        # a dropped connection costs nothing but the re-request.
        replay = client.submit(
            {"op": "enumerate", "token": token, "k": 4}
        ).collect()
        assert replay.status == 200
        assert (
            first.answer_lines + replay.answer_lines
            == serial_lines(graph, "fill", 8)
        )


@needs_process_backend
class TestAnswersCacheMetricsProcessBackend:
    def test_answers_counters_over_worker_pool(self, tmp_path):
        """Worker-side write-back feeds the same per-kind counters the
        gateway exposes; the repeat serve never reaches a worker."""
        with ServerThread(
            backend="process", cache_dir=str(tmp_path / "cache")
        ) as handle:
            client = GatewayClient(*handle.http_address, timeout=120.0)
            graph = connected_erdos_renyi(10, 0.35, seed=7)
            body = {"op": "top", "graph": graph_to_wire(graph),
                    "cost": "fill", "k": 3}
            first = client.submit(body).collect()
            second = client.submit(body).collect()
            assert second.answer_lines == first.answer_lines
            assert second.terminal["engine"] == "cache"
            page = client.metrics()
        assert 'repro_disk_cache_stores_total{kind="answers"}' in page
        assert 'repro_disk_cache_hits_total{kind="answers"}' in page
        for line in page.splitlines():
            if line.startswith("repro_answers_served_total"):
                assert int(float(line.split()[-1])) >= 1
                break
        else:
            raise AssertionError("no answers_served series on /metrics")


@needs_process_backend
class TestMetricsUnderWorkerCrash:
    def test_metrics_stay_live_and_count_the_respawn(self):
        with ServerThread(backend="process", slice_answers=2) as handle:
            client = GatewayClient(*handle.http_address, timeout=120.0)
            stats = client.submit({"op": "stats"}).collect()
            pids = [row["pid"] for row in stats.terminal["workers"]]
            assert len(pids) == 2

            graph = connected_erdos_renyi(12, 0.3, seed=6)
            stream = client.submit(
                {"op": "enumerate", "graph": graph_to_wire(graph),
                 "cost": "fill", "k": 40},
                sse=True,
            )
            events = iter(stream)
            next(events)  # the job is placed on a worker seat
            # Kill both original seats: whichever one holds the job,
            # its next slice hits a broken pipe and redispatches.
            for pid in pids:
                os.kill(pid, signal.SIGKILL)

            # /metrics keeps answering while the pool respawns: the
            # service-stats round trip inside the handler must tolerate
            # a dead seat, not 500.
            page = client.metrics()
            assert "repro_queue_depth " in page
            assert "repro_worker_processes 2" in page

            # The stream itself survives via crash redispatch, and the
            # redispatched answers are still byte-identical.
            for _ in events:
                pass
            assert stream.terminal["type"] == "stats"
            assert stream.answer_lines == serial_lines(graph, "fill", 40)
            stream.close()

            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                page = client.metrics()
                for line in page.splitlines():
                    if line.startswith("repro_worker_respawns_total"):
                        respawns = int(float(line.split()[-1]))
                        break
                else:
                    respawns = 0
                if respawns >= 1:
                    break
                time.sleep(0.1)
            assert respawns >= 1
