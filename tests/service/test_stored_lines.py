"""The answers tier stores each answer's wire line, and replays write it.

A record is built the way a client builds one: a fresh ``top`` with
``k=3`` runs live, and its token resumed for four more answers runs live
from position 3, so the write-back merges an extension that starts
inside the record.  Every page the record then covers must replay with
answer bytes equal to ``serialize_answers`` of a serial
``Session.stream`` run, through TCP, HTTP NDJSON and SSE alike, one
chunk per frame, on both backends; the stored lines themselves must be
those bytes.  A record left under the previous answers version's key
(v2, whose rows had no lines) is a miss on the session path and on the
scheduler path.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

import repro.cache.answers as answers_mod
from repro.api import Session, graph_fingerprint
from repro.cache.answers import AnswerCache, preprocess_applies_for
from repro.cache.store import answers_key
from repro.gateway import GatewayClient
from repro.graphs.generators import connected_erdos_renyi
from repro.service import ServerThread, ServiceClient
from repro.service.protocol import (
    AnswerFrame,
    StatsFrame,
    encode_frame,
    encode_token,
    graph_to_wire,
    serialize_answers,
)

GRAPH = connected_erdos_renyi(12, 0.3, seed=5)


@pytest.fixture(autouse=True)
def _isolated_cache_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    monkeypatch.delenv("REPRO_TOKEN_SECRET", raising=False)


def serial_lines(k):
    stream = Session().stream(GRAPH, "fill")
    try:
        return serialize_answers(itertools.islice(stream, k))
    finally:
        stream.close()


def tcp_page(handle, body):
    """``(answer lines, terminal frame)`` of one TCP page."""
    client = ServiceClient(*handle.address, timeout=120.0)
    with client.send_raw(encode_frame({"type": "request", **body})) as stream:
        answers = [frame.raw for frame in stream if isinstance(frame, AnswerFrame)]
    return answers, stream.terminal


def http_page(handle, body, *, sse):
    """``(answer lines, terminal line)`` of one gateway page; every
    chunk must hold exactly one frame."""
    stream = GatewayClient(*handle.http_address, timeout=120.0).submit(
        body, sse=sse
    )
    assert stream.status == 200
    chunks = list(stream._conn.iter_chunks())
    stream.close()
    frames = []
    for chunk in chunks:
        if sse:
            head, _, data = chunk.partition(b"\ndata: ")
            assert head.startswith(b"event: ") and data.endswith(b"\n\n")
            kind, line = head[len(b"event: "):], data[:-1]
        else:
            kind, line = b"", chunk
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        if not sse and b'"type":"answer"' in line:
            kind = b"answer"
        frames.append((kind, line))
    return [line for kind, line in frames if kind == b"answer"], frames[-1][1]


def test_replayed_pages_are_the_live_frames(tmp_path, backend):
    reference = serial_lines(7)
    with ServerThread(backend=backend, cache_dir=str(tmp_path / "c")) as handle:
        tcp = ServiceClient(*handle.address, timeout=120.0)
        head = tcp.top(GRAPH, "fill", k=3)
        tail = tcp.resume(head.checkpoint, k=4)
        assert head.terminal.engine != "cache" and tail.terminal.engine != "cache"
        assert [*head.answer_lines, *tail.answer_lines] == reference

        wire_graph = graph_to_wire(GRAPH)
        covered = [
            (0, 3, {"op": "top", "graph": wire_graph, "cost": "fill", "k": 3}),
            (0, 7, {"op": "top", "graph": wire_graph, "cost": "fill", "k": 7}),
            (3, 7, {"op": "enumerate", "token": encode_token(head.checkpoint),
                    "k": 4}),
        ]
        for start, end, body in covered:
            answers, terminal = tcp_page(handle, body)
            assert isinstance(terminal, StatsFrame) and terminal.engine == "cache"
            assert answers == reference[start:end], body
            for sse in (False, True):
                answers, terminal = http_page(handle, body, sse=sse)
                assert b'"engine":"cache"' in terminal
                assert answers == reference[start:end], (body, sse)

    with Session(cache_dir=tmp_path / "c") as session:
        record = AnswerCache.for_request(
            session.store, graph_fingerprint(GRAPH), "fill", None, None
        ).load()
    assert [answer.line for answer in record.answers] == reference
    assert sorted(record.checkpoints) == [3, 7]


K = 5


def _left_under_the_v2_key(path, monkeypatch):
    """Fill ``path`` with this graph's record, then move it to the key
    version 2 of the answers record used, tagged version 2."""
    fingerprint = graph_fingerprint(GRAPH)
    pp = preprocess_applies_for("fill", None)
    with Session(cache_dir=path) as session:
        session.top(GRAPH, "fill", k=K)
        store = session.store
        key = answers_key(fingerprint, "fill", None, pp)
        record = store.get("answers", key)
        assert record is not None
        store.delete("answers", key)
        with monkeypatch.context() as patch:
            patch.setattr(answers_mod, "ANSWERS_VERSION", 2)
            old_key = answers_key(fingerprint, "fill", None, pp)
        store.put("answers", old_key, replace(record, version=2))


def test_a_version_2_record_is_a_session_miss(tmp_path, monkeypatch):
    _left_under_the_v2_key(tmp_path / "c", monkeypatch)
    with Session(cache_dir=tmp_path / "c") as session:
        page = session.top(GRAPH, "fill", k=K)
        repeat = session.top(GRAPH, "fill", k=K)
    assert page.stats.engine != "cache"
    assert repeat.stats.engine == "cache"  # the live page stored a v3 record
    assert serialize_answers(page.results) == serial_lines(K)


def test_a_version_2_record_is_a_scheduler_miss(tmp_path, monkeypatch, backend):
    _left_under_the_v2_key(tmp_path / "c", monkeypatch)
    with ServerThread(backend=backend, cache_dir=str(tmp_path / "c")) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        page = client.top(GRAPH, "fill", k=K)
        served = client.service_stats().scheduler["answers_served"]
        repeat = client.top(GRAPH, "fill", k=K)
    assert page.terminal.engine != "cache" and served == 0
    assert repeat.terminal.engine == "cache"
    assert list(page.answer_lines) == serial_lines(K)
