"""Wire-protocol unit tests: framing, labels, requests, typed frames."""

from __future__ import annotations

import json

import pytest

from repro.graphs.generators import grid_graph, paper_example_graph
from repro.graphs.graph import Graph
from repro.service.protocol import (
    AnswerFrame,
    CancelledFrame,
    DeadlineFrame,
    ErrorFrame,
    ProtocolError,
    ServiceRequest,
    StatsFrame,
    answer_frame,
    decode_frame,
    decode_token,
    encode_frame,
    encode_token,
    graph_from_wire,
    graph_to_wire,
    parse_request,
    typed_frame,
)


class TestFraming:
    def test_round_trip(self):
        frame = {"type": "answer", "rank": 0, "cost": 1.5, "bags": [[1, 2]]}
        assert decode_frame(encode_frame(frame)) == frame

    def test_canonical_bytes_are_key_order_independent(self):
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b
        assert a.endswith(b"\n")

    def test_encoding_is_compact_single_line(self):
        line = encode_frame({"type": "answer", "bags": [[1, 2], [3]]})
        assert line.count(b"\n") == 1
        assert b" " not in line

    @pytest.mark.parametrize(
        "line", [b"not json\n", b"[1, 2]\n", b'"string"\n', b"\xff\xfe\n"]
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ProtocolError):
            decode_frame(line)

    def test_token_round_trip(self):
        token = b"\x00\x01binary token\xff"
        assert decode_token(encode_token(token)) == token

    def test_bad_token_raises(self):
        with pytest.raises(ProtocolError):
            decode_token("!!! not base64 !!!")


class TestGraphWire:
    def test_round_trip_int_labels(self):
        g = paper_example_graph()
        restored = graph_from_wire(graph_to_wire(g))
        assert restored == g

    def test_round_trip_tuple_labels(self):
        g = grid_graph(3, 3)
        restored = graph_from_wire(graph_to_wire(g))
        assert restored == g
        assert all(isinstance(v, tuple) for v in restored.vertices)

    def test_round_trip_survives_json(self):
        g = grid_graph(2, 3)
        wire = json.loads(json.dumps(graph_to_wire(g)))
        assert graph_from_wire(wire) == g

    def test_wire_form_is_canonical(self):
        a = Graph(edges=[(1, 2), (2, 3)])
        b = Graph(vertices=[3, 2, 1], edges=[(3, 2), (2, 1)])
        assert graph_to_wire(a) == graph_to_wire(b)

    @pytest.mark.parametrize(
        "wire",
        [
            "not a dict",
            {},
            {"vertices": 3, "edges": []},
            {"vertices": [1], "edges": [[1]]},
            {"vertices": [1], "edges": [[1, 2]]},  # unknown endpoint
            {"vertices": [1, 1], "edges": []},  # duplicate labels collapse?
        ],
    )
    def test_invalid_wire_objects_raise(self, wire):
        if wire == {"vertices": [1, 1], "edges": []}:
            # Duplicate labels are tolerated by Graph (set semantics).
            graph_from_wire(wire)
            return
        with pytest.raises(ProtocolError):
            graph_from_wire(wire)

    def test_unencodable_label_raises(self):
        g = Graph(vertices=[frozenset({1})])
        with pytest.raises(ProtocolError):
            graph_to_wire(g)


class TestServiceRequest:
    def test_frame_round_trip(self):
        request = ServiceRequest(
            op="top",
            graph=grid_graph(2, 2),
            cost="fill",
            k=5,
            deadline=1.5,
            kernel="sets",
        )
        assert parse_request(request.to_frame()) == request
        diverse = ServiceRequest(
            op="diverse",
            graph=grid_graph(2, 2),
            k=3,
            min_distance=2,
            scan_limit=40,
        )
        assert parse_request(diverse.to_frame()) == diverse

    def test_token_frame_round_trip(self):
        request = ServiceRequest(op="enumerate", token=b"opaque", k=3)
        parsed = parse_request(request.to_frame())
        assert parsed.token == b"opaque"
        assert parsed.graph is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(op="nope", graph=Graph(vertices=[1])),
            dict(op="enumerate"),  # neither graph nor token
            dict(op="enumerate", graph=Graph(vertices=[1]), token=b"x"),
            dict(op="diverse", token=b"x"),  # diverse cannot resume
            dict(op="top", graph=Graph(vertices=[1])),  # top needs k
            dict(op="enumerate", graph=Graph(vertices=[1]), k=-1),
            dict(op="enumerate", graph=Graph(vertices=[1]), deadline=0),
            dict(op="decompositions", graph=Graph(vertices=[1]), per_triangulation=-1),
            dict(op="decompositions", graph=Graph(vertices=[1]), per_triangulation=0),
            dict(op="diverse", graph=Graph(vertices=[1]), k=2, scan_limit=-1),
            dict(op="diverse", graph=Graph(vertices=[1]), k=2, scan_limit=0),
        ],
    )
    def test_invalid_requests_raise(self, kwargs):
        with pytest.raises(ProtocolError):
            ServiceRequest(**kwargs)

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "nope"},
            {"type": "request"},  # no op
            {"type": "request", "op": "enumerate"},  # no graph/token
            {"type": "request", "op": "top", "graph": {"vertices": [1], "edges": []}, "k": "five"},
            {"type": "request", "op": "top", "graph": {"vertices": [1], "edges": []}, "k": True},
            {"type": "request", "op": "enumerate", "token": 42},
            {"type": "request", "op": "enumerate", "graph": {"vertices": [1], "edges": []}, "kernel": "gpu"},
            {"type": "request", "op": "enumerate", "graph": {"vertices": [1], "edges": []}, "v": 99},
            {"type": "request", "op": "diverse", "graph": {"vertices": [1], "edges": []}, "k": 3, "min_distance": "2"},
        ],
    )
    def test_invalid_frames_raise(self, frame):
        with pytest.raises(ProtocolError):
            parse_request(frame)


class TestTypedFrames:
    def test_answer_frame_round_trip(self):
        from repro.api import Session

        g = grid_graph(2, 3)
        response = Session().top(g, "fill", k=1)
        frame = answer_frame(response.results[0])
        raw = encode_frame(frame)
        typed = typed_frame(decode_frame(raw), raw=raw)
        assert isinstance(typed, AnswerFrame)
        assert typed.rank == 0
        assert typed.raw == raw
        # Bags decode back to tuple labels in canonical order.
        assert all(
            all(isinstance(v, tuple) for v in bag) for bag in typed.bags
        )

    def test_terminal_frames(self):
        cases = [
            (
                {
                    "type": "stats",
                    "emitted": 3,
                    "expansions": 7,
                    "exhausted": False,
                    "elapsed_seconds": 0.5,
                    "engine": "serial",
                    "preprocessed": False,
                    "next_rank": 3,
                    "checkpoint": encode_token(b"tok"),
                },
                StatsFrame,
            ),
            (
                {"type": "deadline", "emitted": 2, "next_rank": 2,
                 "checkpoint": encode_token(b"tok")},
                DeadlineFrame,
            ),
            (
                {"type": "cancelled", "emitted": 1, "next_rank": 1,
                 "checkpoint": None},
                CancelledFrame,
            ),
            ({"type": "error", "code": "bad-request", "message": "x"}, ErrorFrame),
        ]
        for frame, expected_type in cases:
            typed = typed_frame(frame)
            assert isinstance(typed, expected_type)
        assert typed_frame(cases[0][0]).checkpoint == b"tok"
        assert typed_frame(cases[2][0]).checkpoint is None

    def test_unknown_or_incomplete_frames_raise(self):
        with pytest.raises(ProtocolError):
            typed_frame({"type": "mystery"})
        with pytest.raises(ProtocolError):
            typed_frame({"type": "answer", "rank": 0})  # missing fields

    def test_answer_frames_are_timing_free(self):
        """Two runs of the same request serialize to identical bytes."""
        from repro.api import Session

        g = paper_example_graph()
        lines = []
        for _ in range(2):
            response = Session().top(g, "fill", k=3)
            lines.append(
                [encode_frame(answer_frame(r)) for r in response.results]
            )
        assert lines[0] == lines[1]
