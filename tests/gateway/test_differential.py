"""Differential: gateway SSE == gateway NDJSON == TCP NDJSON == serial.

The gateway's whole framing contract is that HTTP transport never
perturbs the answer stream.  These tests run mixed workloads through
four independent paths and require byte identity:

* the serial :class:`~repro.api.Session` (``serialize_answers``),
* the TCP NDJSON service (:class:`~repro.service.ServiceClient`),
* the gateway's chunked NDJSON encoding,
* the gateway's SSE encoding.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor

from repro.api import Session
from repro.gateway import GatewayClient
from repro.graphs.generators import (
    connected_erdos_renyi,
    paper_example_graph,
)
from repro.service import ServerThread
from repro.service.client import ServiceClient, ServiceRequest
from repro.service.protocol import graph_to_wire, serialize_answers

WORKLOADS = [
    {"op": "top", "graph": connected_erdos_renyi(9, 0.4, seed=1),
     "cost": "fill", "k": 5},
    {"op": "top", "graph": connected_erdos_renyi(10, 0.35, seed=2),
     "cost": "width", "k": 4},
    {"op": "enumerate", "graph": paper_example_graph(),
     "cost": "fill", "k": 6},
    {"op": "top", "graph": connected_erdos_renyi(11, 0.3, seed=3),
     "cost": "fill", "k": 3, "kernel": "sets"},
]


def serial_reference(spec):
    session = Session(kernel=spec.get("kernel", "bitset"))
    stream = session.stream(spec["graph"], spec["cost"])
    try:
        results = list(itertools.islice(stream, spec["k"]))
    finally:
        stream.close()
    return serialize_answers(results)


def tcp_lines(address, spec):
    client = ServiceClient(*address, timeout=120.0)
    options = {"kernel": spec["kernel"]} if "kernel" in spec else {}
    request = ServiceRequest(
        op=spec["op"], graph=spec["graph"], cost=spec["cost"],
        k=spec["k"], **options,
    )
    return list(client.collect(request).answer_lines)


def gateway_lines(address, spec, *, sse):
    body = {
        "op": spec["op"], "graph": graph_to_wire(spec["graph"]),
        "cost": spec["cost"], "k": spec["k"],
    }
    if "kernel" in spec:
        body["kernel"] = spec["kernel"]
    client = GatewayClient(*address, timeout=120.0)
    stream = client.submit(body, sse=sse).collect()
    assert stream.status == 200
    return stream.answer_lines


class TestTransportByteIdentity:
    def test_mixed_concurrent_batch_is_identical_on_every_path(
        self, backend, tmp_path
    ):
        with ServerThread(backend=backend, slice_answers=2) as handle:
            def one(spec):
                return {
                    "serial": serial_reference(spec),
                    "tcp": tcp_lines(handle.address, spec),
                    "ndjson": gateway_lines(
                        handle.http_address, spec, sse=False
                    ),
                    "sse": gateway_lines(handle.http_address, spec, sse=True),
                }

            # All workloads in flight at once across both doors, so
            # slices interleave across the shared scheduler.
            with ThreadPoolExecutor(max_workers=len(WORKLOADS)) as pool:
                outcomes = list(pool.map(one, WORKLOADS))

        for spec, outcome in zip(WORKLOADS, outcomes):
            label = f"{spec['op']}/{spec['cost']}/k={spec['k']}"
            assert outcome["tcp"] == outcome["serial"], label
            assert outcome["ndjson"] == outcome["serial"], label
            assert outcome["sse"] == outcome["serial"], label

    def test_http_resume_of_a_tcp_checkpoint(self, backend, tmp_path):
        # Tokens are transport-independent: a checkpoint minted over
        # TCP resumes over HTTP and vice versa, byte-for-byte.
        import base64

        graph = connected_erdos_renyi(10, 0.35, seed=2)
        with ServerThread(backend=backend, slice_answers=2) as handle:
            client = ServiceClient(*handle.address, timeout=120.0)
            request = ServiceRequest(
                op="top", graph=graph, cost="fill", k=4
            )
            result = client.collect(request)
            head = list(result.answer_lines)
            token = result.checkpoint
            assert token is not None

            http = GatewayClient(*handle.http_address, timeout=120.0)
            rest = http.submit({
                "op": "top",
                "token": base64.b64encode(token).decode("ascii"),
                "k": 4,
            }).collect()
            assert rest.status == 200

            spec = {"op": "top", "graph": graph, "cost": "fill", "k": 8}
            assert head + rest.answer_lines == serial_reference(spec)
