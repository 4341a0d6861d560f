"""Binary checkpoint tokens: canonical bytes, typed refusals, no pickle.

A token is the whole resumable state of a paused stream: bag sets and
``[I, X]`` pairs as masks, the graph as canonical labels.  These tests
hold the codec to its contract: a decoded token re-encodes to the same
bytes, it resumes the exact sequence under either kernel and in any
session, every malformed token ends in a :class:`ValueError` (a
``bad-request`` frame or HTTP 400 at the service doors), and nothing on
the resume path unpickles.
"""

from __future__ import annotations

import base64
import dataclasses
import itertools
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Session, StreamCheckpoint, load_checkpoint
from repro.api.checkpoint import CHECKPOINT_VERSION, TokenGraph, read_header
from repro.cache.answers import AnswerCache
from repro.costs.base import BagCost
from repro.costs.classic import count_fill_edges
from repro.graphs.generators import connected_erdos_renyi, cycle_graph
from repro.graphs.graph import Graph
from repro.preprocess import ComposedCheckpoint
from repro.service import ErrorFrame, StatsFrame
from repro.service.protocol import serialize_answers

KINDS = ("direct", "composed")
#: Decomposes under preprocessing: reductions, two enumerated atoms and
#: a complete one, so composed tokens carry every section.
COMPOSED_GRAPH = connected_erdos_renyi(12, 0.3, seed=7)
#: 14 answers, 5 within width bound 2.
GRAPH = connected_erdos_renyi(12, 0.3, seed=2)


def signature(results):
    return [(r.rank, r.cost, frozenset(r.triangulation.bags)) for r in results]


def uninterrupted(graph, cost="fill", width_bound=None, kind="direct"):
    session = Session(preprocess=kind == "composed")
    return signature(session.stream(graph, cost, width_bound=width_bound))


def paused(graph, kind, *, kernel="bitset", cost="fill", k=2, width_bound=None):
    """``(head results, token bytes)`` of a stream paused after ``k``."""
    session = Session(kernel=kernel, preprocess=kind == "composed")
    stream = session.stream(graph, cost, width_bound=width_bound)
    head = list(itertools.islice(stream, k))
    checkpoint = stream.checkpoint()
    stream.close()
    assert checkpoint.composed == (kind == "composed")
    return head, checkpoint.to_bytes()


class TestCanonicalBytes:
    @pytest.mark.parametrize("kernel", ["bitset", "sets"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_decoded_token_reencodes_to_its_bytes(self, kernel, kind):
        session = Session(kernel=kernel, preprocess=kind == "composed")
        page = session.top(connected_erdos_renyi(10, 0.35, seed=0), "fill", k=8)
        blob = page.checkpoint.to_bytes()
        decoded = load_checkpoint(blob)
        assert type(decoded) is (
            ComposedCheckpoint if kind == "composed" else StreamCheckpoint
        )
        assert decoded == page.checkpoint
        assert decoded.to_bytes() == blob

    @pytest.mark.parametrize("kind", KINDS)
    def test_replayed_page_checkpoint_reserializes_to_stored_bytes(
        self, tmp_path, kind
    ):
        graph = connected_erdos_renyi(10, 0.35, seed=0)
        preprocess = kind == "composed"
        live = Session(cache_dir=str(tmp_path), preprocess=preprocess)
        first = live.top(graph, "fill", k=8, preprocess=preprocess)
        live.close()
        cached = Session(cache_dir=str(tmp_path), preprocess=preprocess)
        replay = cached.top(graph, "fill", k=8, preprocess=preprocess)
        assert replay.stats.engine == "cache"
        record = AnswerCache(
            cached.store, first.stats.fingerprint, "fill", None,
            applies=preprocess,
        ).load()
        cached.close()
        stored = record.checkpoints[8]
        assert replay.checkpoint.to_bytes() == stored
        assert first.checkpoint.to_bytes() == stored

    @pytest.mark.parametrize("kind", KINDS)
    def test_header_reads_without_the_body(self, kind):
        graph = COMPOSED_GRAPH if kind == "composed" else GRAPH
        _head, blob = paused(graph, kind)
        header = read_header(blob)
        checkpoint = load_checkpoint(blob)
        assert header.composed == checkpoint.composed
        for name in ("fingerprint", "cost_spec", "width_bound",
                     "next_rank", "next_order", "exhausted", "graph"):
            assert getattr(header, name) == getattr(checkpoint, name), name


class TestResumeAnywhere:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("kernels", [("bitset", "sets"), ("sets", "bitset")])
    @pytest.mark.parametrize("width_bound", [None, 2])
    def test_other_kernel_fresh_session_width_bound(self, kind, kernels, width_bound):
        graph = COMPOSED_GRAPH if kind == "composed" else GRAPH
        if kind == "composed" and width_bound is not None:
            width_bound = 3  # the composed graph's atoms need width 3
        expected = uninterrupted(graph, width_bound=width_bound, kind=kind)
        assert len(expected) > 2
        head, blob = paused(graph, kind, kernel=kernels[0], width_bound=width_bound)
        fresh = Session(kernel=kernels[1], preprocess=kind == "composed")
        tail = list(fresh.resume_stream(blob))
        assert signature(head) + signature(tail) == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_resume_matches_cold_resume(self, kind):
        graph = COMPOSED_GRAPH if kind == "composed" else GRAPH
        session = Session(preprocess=kind == "composed")
        stream = session.stream(graph, "fill")
        head = list(itertools.islice(stream, 3))
        blob = stream.checkpoint().to_bytes()
        warm = list(session.resume_stream(blob))
        cold = list(Session().resume_stream(blob))
        assert signature(warm) == signature(cold)
        assert signature(head) + signature(warm) == uninterrupted(graph, kind=kind)

    def test_concurrent_warm_resumes_count_one_hit_each(self):
        """Many threads resume one token on a shared warm session: each
        compares the token's graph with the context's (built lazily by
        whichever thread comes first) outside the session lock.  No
        context is built again, every resume is one counted hit, and
        every resume continues the sequence exactly."""
        head, blob = paused(GRAPH, "direct")
        expected = uninterrupted(GRAPH)[len(head):]
        session = Session(preprocess=False)
        session.stream(GRAPH, "fill").close()  # warm, no checkpoint taken
        before = session.cache_info()
        resumes = 32
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(lambda: signature(session.resume_stream(blob)))
                    for _ in range(resumes)
                ]
                tails = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(previous)
        assert all(tail == expected for tail in tails)
        after = session.cache_info()
        assert after["builds"] == before["builds"] == 1
        assert after["hits"] - before["hits"] == resumes

    def test_every_wire_label_type_round_trips(self):
        labels = ["s", "é", -7, 10**30, 2.5, None, True, ("t", (3, "u"))]
        n = len(labels)
        graph = Graph(
            vertices=labels,
            edges=[(labels[i], labels[(i + 1) % n]) for i in range(n)]
            + [(labels[0], labels[3]), (labels[2], labels[6])],
        )
        expected = uninterrupted(graph)
        head, blob = paused(graph, "direct", k=3)
        decoded = load_checkpoint(blob)
        original = load_checkpoint(blob).restore_graph()
        assert sorted(map(repr, decoded.vertices)) == sorted(map(repr, labels))
        assert original.vertex_set() == graph.vertex_set()
        tail = list(Session().resume_stream(blob))
        assert signature(head) + signature(tail) == expected

    def test_label_outside_the_wire_types_fails_at_to_bytes(self):
        labels = [("a", 1j), ("b", 2j), ("c", 3j), ("d", 4j), ("e", 5j)]
        graph = Graph(
            vertices=labels,
            edges=[(labels[i], labels[(i + 1) % 5]) for i in range(5)],
        )
        session = Session(preprocess=False)
        expected = signature(session.stream(graph, "fill"))
        stream = session.stream(graph, "fill")
        head = [next(stream)]
        checkpoint = stream.checkpoint()  # in memory: fine
        with pytest.raises(ValueError, match="complex"):
            checkpoint.to_bytes()
        tail = list(session.resume_stream(checkpoint))
        assert signature(head) + signature(tail) == expected

    def test_int_cost_values_stay_ints(self):
        class IntFill(BagCost):
            name = "int-fill"

            def evaluate(self, graph, bags):
                return count_fill_edges(graph, bags)

        graph = cycle_graph(7)
        session = Session(preprocess=False)
        reference = list(session.stream(graph, IntFill()))
        stream = session.stream(graph, IntFill())
        head = list(itertools.islice(stream, 4))
        blob = stream.checkpoint().to_bytes()
        decoded = load_checkpoint(blob)
        assert all(type(e.value) is int for e in decoded.frontier)
        tail = list(Session().resume_stream(blob, cost=IntFill()))
        assert serialize_answers(head + tail) == serialize_answers(reference)


def _flip(blob: bytes, bit: int) -> bytes:
    data = bytearray(blob)
    data[bit // 8] ^= 1 << (bit % 8)
    return bytes(data)


def _wrong_graph(blob: bytes) -> bytes:
    """The token with the graph section of another graph, its header
    (fingerprint included) and frontier unchanged."""
    checkpoint = load_checkpoint(blob)
    other = TokenGraph.of(cycle_graph(len(checkpoint.vertices)))
    return dataclasses.replace(checkpoint, graph=other).to_bytes()


def _old_format() -> bytes:
    """A pickle payload, the shape version-1 tokens had."""
    return pickle.dumps({"fingerprint": "0" * 64}, protocol=5)


class TestTypedRefusals:
    @pytest.mark.parametrize("kind", KINDS)
    def test_garbage_and_every_truncation_raise_value_error(self, kind):
        graph = COMPOSED_GRAPH if kind == "composed" else GRAPH
        _head, blob = paused(graph, kind)
        for bad in [b"garbage", b""] + [blob[:n] for n in range(len(blob))]:
            with pytest.raises(ValueError):
                load_checkpoint(bad)
            with pytest.raises(ValueError):
                read_header(bad)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_single_bit_flip_raises_value_error(self, kind):
        graph = COMPOSED_GRAPH if kind == "composed" else GRAPH
        _head, blob = paused(graph, kind)
        for bit in range(8 * len(blob)):
            with pytest.raises(ValueError):
                load_checkpoint(_flip(blob, bit))

    def test_old_pickle_format_is_refused_by_version(self, monkeypatch):
        monkeypatch.setattr(pickle, "loads", _no_unpickling)
        with pytest.raises(ValueError, match="version 1") as info:
            load_checkpoint(_old_format())
        assert f"version {CHECKPOINT_VERSION}" in str(info.value)
        with pytest.raises(ValueError, match="version 1"):
            Session().resume_stream(_old_format())

    def test_future_version_is_refused(self):
        _head, blob = paused(GRAPH, "direct")
        future = dataclasses.replace(
            load_checkpoint(blob), version=CHECKPOINT_VERSION + 1
        ).to_bytes()
        with pytest.raises(ValueError, match=f"version {CHECKPOINT_VERSION + 1}"):
            load_checkpoint(future)

    def test_kind_mismatch_is_refused(self):
        _head, direct = paused(GRAPH, "direct")
        _head, composed = paused(COMPOSED_GRAPH, "composed")
        with pytest.raises(ValueError, match="expected ComposedCheckpoint"):
            ComposedCheckpoint.from_bytes(direct)
        with pytest.raises(ValueError, match="expected StreamCheckpoint"):
            StreamCheckpoint.from_bytes(composed)

    @pytest.mark.parametrize("warm", [False, True])
    def test_graph_section_of_another_graph_is_refused(self, warm):
        session = Session(preprocess=False)
        _head, blob = paused(GRAPH, "direct")
        if warm:
            session.context(GRAPH)
        with pytest.raises(ValueError, match="corrupted"):
            session.resume_stream(_wrong_graph(blob))

    @pytest.mark.parametrize("field", ["bags", "include", "exclude"])
    def test_frontier_masks_are_range_checked(self, field):
        _head, blob = paused(GRAPH, "direct")
        checkpoint = load_checkpoint(blob)
        entry = checkpoint.frontier[0]
        bad = entry._replace(**{field: getattr(entry, field) | 1 << 4000})
        forged = dataclasses.replace(
            checkpoint, frontier=(bad,) + checkpoint.frontier[1:]
        ).to_bytes()
        warm = Session()
        warm.context(GRAPH)
        with pytest.raises(ValueError, match="does not fit"):
            warm.resume_stream(forged)
        with pytest.raises(ValueError, match="does not fit"):
            Session().resume_stream(forged)


def _no_unpickling(*_args, **_kwargs):
    raise AssertionError("the resume path unpickled something")


@pytest.fixture()
def no_pickle(monkeypatch):
    """Make every unpickling entry point of :mod:`pickle` fail."""
    for name in ("loads", "load", "Unpickler"):
        monkeypatch.setattr(pickle, name, _no_unpickling)


class TestNoPickleOnTheResumePath:
    @pytest.mark.parametrize("kind", KINDS)
    def test_library_resume(self, kind, no_pickle):
        graph = COMPOSED_GRAPH if kind == "composed" else GRAPH
        expected = uninterrupted(graph, kind=kind)
        head, blob = paused(graph, kind)
        assert load_checkpoint(blob).to_bytes() == blob
        session = Session(preprocess=kind == "composed")
        tail = list(session.resume_stream(blob))
        assert signature(head) + signature(tail) == expected
        again = list(session.resume_stream(blob))  # warm this time
        assert signature(again) == signature(tail)


#: The signing key of the test servers, so tests can re-sign payloads.
KEY = b"k" * 32


@pytest.fixture(scope="module")
def tcp_door():
    from repro.service import ServerThread

    with ServerThread(
        max_workers=2, slice_answers=2, backend="inprocess", token_key=KEY
    ) as handle:
        yield handle


@pytest.fixture(scope="module")
def http_door():
    from repro.gateway import GatewayThread

    with GatewayThread(
        max_workers=2, slice_answers=2, backend="inprocess", token_key=KEY
    ) as handle:
        yield handle


def _tcp_resume(door, payload: bytes, k: int):
    """``(answer lines, terminal frame)`` of a TCP resume job."""
    from repro.service import AnswerFrame, ServiceClient, ServiceRequest
    from repro.service.protocol import sign_token

    client = ServiceClient(*door.address, timeout=60.0)
    request = ServiceRequest(op="enumerate", token=sign_token(KEY, payload), k=k)
    lines = []
    with client.open(request) as stream:
        for frame in stream:
            if isinstance(frame, AnswerFrame):
                lines.append(frame.raw)
    return lines, stream.terminal


def _http_resume(door, payload: bytes, k: int):
    """``(status, answer lines, terminal frame dict)`` over HTTP."""
    from repro.gateway import GatewayClient
    from repro.service.protocol import sign_token

    client = GatewayClient(*door.address, timeout=60.0)
    token = base64.b64encode(sign_token(KEY, payload)).decode("ascii")
    stream = client.submit({"op": "enumerate", "token": token, "k": k}).collect()
    return stream.status, list(stream.answer_lines), stream.terminal


def _serial(graph, kind, start, stop):
    session = Session(preprocess=kind == "composed")
    stream = session.stream(graph, "fill")
    return serialize_answers(itertools.islice(stream, start, stop))


class TestServerDoors:
    @pytest.mark.parametrize("kind", KINDS)
    def test_resume_through_both_doors_without_pickle(
        self, kind, tcp_door, http_door, no_pickle
    ):
        graph = COMPOSED_GRAPH if kind == "composed" else GRAPH
        _head, blob = paused(graph, kind, k=2)
        lines, terminal = _tcp_resume(tcp_door, blob, 3)
        assert isinstance(terminal, StatsFrame)
        assert lines == _serial(graph, kind, 2, 5)
        status, lines, terminal = _http_resume(http_door, blob, 3)
        assert status == 200 and terminal["type"] == "stats"
        assert lines == _serial(graph, kind, 2, 5)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fuzzed_tokens_get_bad_request_at_both_doors(
        self, kind, tcp_door, http_door
    ):
        graph = COMPOSED_GRAPH if kind == "composed" else GRAPH
        _head, blob = paused(graph, kind)
        fuzzed = [blob[:n] for n in (1, 5, len(blob) // 2, len(blob) - 1)]
        fuzzed += [_flip(blob, bit) for bit in range(0, 8 * len(blob), 97)]
        fuzzed += [_old_format(), b"garbage"]
        if kind == "direct":
            fuzzed.append(_wrong_graph(blob))
        for payload in fuzzed:
            lines, terminal = _tcp_resume(tcp_door, payload, 3)
            assert isinstance(terminal, ErrorFrame), payload
            assert terminal.code == "bad-request"
            assert lines == []
            status, lines, terminal = _http_resume(http_door, payload, 3)
            assert status == 400 and terminal["code"] == "bad-request"
            assert lines == []
