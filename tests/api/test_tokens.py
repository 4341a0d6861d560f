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
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Session, StreamCheckpoint, load_checkpoint
from repro.api.checkpoint import (
    CHECKPOINT_VERSION,
    TokenGraph,
    TokenReader,
    read_header,
)
from repro.cache.answers import AnswerCache
from repro.costs.base import BagCost
from repro.costs.classic import count_fill_edges
from repro.graphs.generators import connected_erdos_renyi, cycle_graph
from repro.graphs.graph import Graph
from repro.preprocess import ComposedCheckpoint
from repro.preprocess.recompose import COMPOSED_CHECKPOINT_VERSION
from repro.service import ErrorFrame, StatsFrame
from repro.service.protocol import serialize_answers

KINDS = ("direct", "composed")
#: Decomposes under preprocessing: reductions, two enumerated atoms and
#: a complete one, so composed tokens carry every section.
COMPOSED_GRAPH = connected_erdos_renyi(12, 0.3, seed=7)
#: 14 answers, 5 within width bound 2.
GRAPH = connected_erdos_renyi(12, 0.3, seed=2)
#: Two 5-cycles sharing the edge 1-2: a composed stream of two atoms.
TWO_C5 = Graph(
    edges=[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 6), (6, 7), (7, 8), (8, 1)]
)

#: Tokens minted at version 2 (the format before the columnar frontier),
#: checked in as bytes: ``cycle_graph(7)`` under ``width`` after three
#: answers, a direct token, and ``TWO_C5`` under ``width`` after three,
#: a composed one.
V2_DIRECT_C7 = bytes.fromhex(
    "5250434b53024034643937343263623332613032646530343762383734616162"
    "3562313761643434643234323434306539346165643461616564616364336633"
    "623438336337310105776964746800030a002407030003010203010403010603"
    "010803010a03010c070001000601020203030404050506070000000000000000"
    "4003042144008001030104000000000000000040040521220000040107010800"
    "0000000000000040050404500102000103000000000000000040060402c40080"
    "01020105000000000000000040070502a2000004010601090000000000000000"
    "4008048140008401010106000000000000000040090541200002040105010a9e"
    "988c7f"
)
V2_COMPOSED_TWO_C5 = bytes.fromhex(
    "5250434b43024030376365386261613161326163376165366433313236636564"
    "3430623233623936366664323837353739346363353564383633613532633364"
    "3131333763306101057769647468000306002c08030102030104030106030108"
    "03010a03010c03010e0301100900010004000701020105020303040506060700"
    "0002011f03000000000000000040030107010d01190000000000000000400301"
    "0b010e01190000000000000000400301070115011c83015250434b5302403062"
    "3932363463376637363435306666376164313437356331333038376561336437"
    "6566303938316438346261316661393731393064616330363765613130630105"
    "7769647468000304001b0503010203010403010603010803010a050001000401"
    "02020303040100000000000000004003028402000103405ce68401e303000000"
    "000000000040030123016101c1000000000000000040030143016201c1000000"
    "00000000004003012301a101e083015250434b53024030643661646332663530"
    "3865326465316239393336616138353533366132383938653862636561343235"
    "6538363662373366626365353638666234346466356401057769647468000304"
    "001b0503010203010403010c03010e0301100500010004010202030304010000"
    "0000000000004003028402000103a5a2cf850300000000000000004003020000"
    "0000000000000040040101000000000000000040050002060000000100020100"
    "01010200d42f1ac2"
)


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

    @pytest.mark.parametrize("warm", [True, False])
    def test_composed_resume_restores_and_hashes_once(self, monkeypatch, warm):
        """A composed token restores its graph once and hashes it once.
        Warm, each piece's graph section matches its cached atom
        context's bytes, so no piece is restored or hashed; cold, each
        piece restores and hashes its own atom graph."""
        import repro.api.session as session_mod

        session = Session(preprocess=True)
        stream = session.stream(COMPOSED_GRAPH, "fill")
        head = list(itertools.islice(stream, 2))
        blob = stream.checkpoint().to_bytes()
        stream.close()
        if not warm:
            session = Session(preprocess=True)
        hashed, restored = [], []
        fingerprint, restore = session_mod.graph_fingerprint, TokenGraph.restore
        monkeypatch.setattr(
            session_mod, "graph_fingerprint",
            lambda graph: hashed.append(len(graph)) or fingerprint(graph),
        )
        monkeypatch.setattr(
            TokenGraph, "restore",
            lambda graph: restored.append(len(graph.vertices)) or restore(graph),
        )
        resumed = session.resume_stream(blob)
        outer = [len(COMPOSED_GRAPH)]
        pieces = [] if warm else [5, 7]
        assert sorted(hashed) == sorted(outer + pieces)
        assert sorted(restored) == sorted(outer + pieces)
        assert signature(head) + signature(resumed) == uninterrupted(
            COMPOSED_GRAPH, kind="composed"
        )

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


def _cycle_through(atom_graph: Graph) -> Graph:
    """Another graph on the atom's labels: a cycle through them."""
    atom = sorted(atom_graph.vertices)
    return Graph(vertices=atom, edges=zip(atom, atom[1:] + atom[:1]))


def _relabelled_with_floats(atom_graph: Graph) -> Graph:
    """The atom's graph with every label ``v`` as ``float(v)``: equal as
    Python sets of labels and edges, a different labelled graph."""
    return Graph(
        vertices=map(float, atom_graph.vertices),
        edges=((float(u), float(v)) for u, v in atom_graph.edges()),
    )


def _piece_of_another_graph(blob: bytes, forge) -> bytes:
    """The composed token with its first piece swapped for a token of
    ``forge(atom subgraph)``, whose fingerprint and frontier are that
    graph's own."""
    checkpoint = load_checkpoint(blob)
    state = checkpoint.pieces[0]
    other = forge(COMPOSED_GRAPH.subgraph(state.atom))
    assert TokenGraph.of(other) != TokenGraph.of(
        COMPOSED_GRAPH.subgraph(state.atom)
    )
    stream = Session(preprocess=False).stream(other, "fill")
    next(stream)
    forged = dataclasses.replace(state, checkpoint=stream.checkpoint())
    return dataclasses.replace(
        checkpoint, pieces=(forged,) + checkpoint.pieces[1:]
    ).to_bytes()


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

    @pytest.mark.parametrize(
        "forge", [_cycle_through, _relabelled_with_floats]
    )
    @pytest.mark.parametrize("warm", [False, True])
    def test_piece_of_another_graph_is_refused(self, warm, forge):
        session = Session(preprocess=True)
        _head, blob = paused(COMPOSED_GRAPH, "composed")
        if warm:
            session.resume_stream(blob).close()
        with pytest.raises(
            ValueError, match="a piece checkpoint does not match its atom's graph"
        ):
            session.resume_stream(_piece_of_another_graph(blob, forge))

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

    @pytest.mark.parametrize("field", ["bags", "include", "exclude"])
    def test_negative_masks_of_a_checkpoint_object_are_refused(self, field):
        """No token carries a negative mask (``to_bytes`` refuses one),
        but a checkpoint object can; the column checks refuse it too."""
        _head, blob = paused(GRAPH, "direct")
        checkpoint = load_checkpoint(blob)
        with pytest.raises(ValueError, match="negative"):
            dataclasses.replace(
                checkpoint,
                frontier=(checkpoint.frontier[0]._replace(**{field: -1}),),
            ).to_bytes()
        entry = checkpoint.frontier[0]
        bad = entry._replace(**{field: -getattr(entry, field) or -1})
        forged = dataclasses.replace(
            checkpoint, frontier=(bad,) + checkpoint.frontier[1:]
        )
        with pytest.raises(ValueError, match="does not fit"):
            Session().resume_stream(forged)

    @pytest.mark.parametrize("forge", ["one order", "order too high", "nan"])
    @pytest.mark.parametrize("source", ["bytes", "object"])
    def test_a_frontier_no_stream_writes_is_refused(self, forge, source):
        """Pop order, unique orders below ``next_order``, no NaN: a
        frontier that breaks one was not written by ``checkpoint()``.
        Each of these forgeries resumed at version 2, the NaN one
        emitting an answer of cost ``nan``."""
        session = Session(preprocess=False)
        stream = session.stream(GRAPH, "fill")
        list(itertools.islice(stream, 2))
        checkpoint = stream.checkpoint()
        frontier = checkpoint.frontier
        assert [entry.order for entry in frontier] == [3, 4, 2, 5]
        assert checkpoint.next_order == 6
        if forge == "one order":
            frontier = tuple(entry._replace(order=3) for entry in frontier)
        elif forge == "order too high":
            frontier = frontier[:-1] + (
                frontier[-1]._replace(order=checkpoint.next_order + 5),
            )
        else:
            frontier = (frontier[0]._replace(value=float("nan")),) + frontier[1:]
        forged = dataclasses.replace(checkpoint, frontier=frontier)
        if source == "bytes":
            forged = forged.to_bytes()
            load_checkpoint(forged)  # decodes; the resume refuses it
        with pytest.raises(ValueError, match="; the token is corrupted$"):
            session.resume_stream(forged)
        with pytest.raises(ValueError, match="; the token is corrupted$"):
            Session(preprocess=False).resume_stream(forged)

    @pytest.mark.parametrize(
        "blob, label, version",
        [
            (V2_DIRECT_C7, "checkpoint", CHECKPOINT_VERSION),
            (V2_COMPOSED_TWO_C5, "composed-checkpoint", COMPOSED_CHECKPOINT_VERSION),
        ],
        ids=KINDS,
    )
    def test_version_2_tokens_are_refused_by_version(
        self, blob, label, version, tmp_path, capsys
    ):
        """Real bytes of an older format, not re-encoded by this build:
        the library and the CLI refuse them naming both versions."""
        from repro.cli import main
        from repro.graphs.io import write_graph

        message = (
            f"unsupported {label} version 2 (this build reads version {version})"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(blob)
        with pytest.raises(ValueError, match=re.escape(message)):
            Session().resume_stream(blob)
        token = tmp_path / "old.tok"
        token.write_bytes(blob)
        graph = tmp_path / "g.gr"
        write_graph(cycle_graph(7) if label == "checkpoint" else TWO_C5, graph)
        assert main(["enumerate", str(graph), "--resume", str(token)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: checkpoint {token}: {message}\n"
        assert captured.out == ""


class TestBulkDecode:
    PRIMITIVES = ("uint", "mask", "take", "value")

    def test_reader_calls_do_not_grow_with_the_frontier(self, monkeypatch):
        """An all-float frontier decodes in a fixed number of reader
        primitive calls, none of them per entry: a return to per-entry
        reads makes the 79-entry token's count grow."""
        blobs = []
        for graph, k in ((GRAPH, 10), (cycle_graph(10), 77)):
            stream = Session(preprocess=False).stream(graph, "width")
            list(itertools.islice(stream, k))
            blobs.append(stream.checkpoint().to_bytes())
        calls = Counter()

        def counted(name, method):
            def call(*args):
                calls[name] += 1
                return method(*args)

            return call

        for name in self.PRIMITIVES:
            monkeypatch.setattr(
                TokenReader, name, counted(name, getattr(TokenReader, name))
            )
        counts = []
        for blob in blobs:
            calls.clear()
            checkpoint = load_checkpoint(blob)
            assert all(type(entry.value) is float for entry in checkpoint.frontier)
            counts.append((len(checkpoint.frontier), dict(calls)))
        (small, small_calls), (large, large_calls) = counts
        assert (small, large) == (2, 79)
        assert small_calls == large_calls


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
def doors():
    """Both doors of one in-process server."""
    from repro.service import ServerThread

    with ServerThread(slice_answers=2, token_key=KEY) as handle:
        yield handle


def _tcp_resume(doors, payload: bytes, k: int):
    """``(answer lines, terminal frame)`` of a TCP resume job."""
    from repro.service import AnswerFrame, ServiceClient, ServiceRequest
    from repro.service.protocol import sign_token

    client = ServiceClient(*doors.address, timeout=60.0)
    request = ServiceRequest(op="enumerate", token=sign_token(KEY, payload), k=k)
    lines = []
    with client.open(request) as stream:
        for frame in stream:
            if isinstance(frame, AnswerFrame):
                lines.append(frame.raw)
    return lines, stream.terminal


def _http_resume(doors, payload: bytes, k: int):
    """``(status, answer lines, terminal frame dict)`` over HTTP."""
    from repro.gateway import GatewayClient
    from repro.service.protocol import sign_token

    client = GatewayClient(*doors.http_address, timeout=60.0)
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
        self, kind, doors, no_pickle
    ):
        graph = COMPOSED_GRAPH if kind == "composed" else GRAPH
        _head, blob = paused(graph, kind, k=2)
        lines, terminal = _tcp_resume(doors, blob, 3)
        assert isinstance(terminal, StatsFrame)
        assert lines == _serial(graph, kind, 2, 5)
        status, lines, terminal = _http_resume(doors, blob, 3)
        assert status == 200 and terminal["type"] == "stats"
        assert lines == _serial(graph, kind, 2, 5)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fuzzed_tokens_get_bad_request_at_both_doors(
        self, kind, doors
    ):
        graph = COMPOSED_GRAPH if kind == "composed" else GRAPH
        _head, blob = paused(graph, kind)
        fuzzed = [blob[:n] for n in (1, 5, len(blob) // 2, len(blob) - 1)]
        fuzzed += [_flip(blob, bit) for bit in range(0, 8 * len(blob), 97)]
        fuzzed += [_old_format(), b"garbage"]
        if kind == "direct":
            fuzzed.append(_wrong_graph(blob))
        for payload in fuzzed:
            lines, terminal = _tcp_resume(doors, payload, 3)
            assert isinstance(terminal, ErrorFrame), payload
            assert terminal.code == "bad-request"
            assert lines == []
            status, lines, terminal = _http_resume(doors, payload, 3)
            assert status == 400 and terminal["code"] == "bad-request"
            assert lines == []
