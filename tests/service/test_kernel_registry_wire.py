"""Registry-driven wire validation: a registered kernel is a valid
kernel *everywhere*, immediately.

The ISSUE's regression scenario: third-party code registers a kernel via
:func:`repro.graphs.kernels.register_kernel` and the name must be
accepted end-to-end — ``ServiceRequest`` construction, ``parse_request``
on a decoded frame, the scheduler's session pool, and the HTTP gateway —
with no hardcoded name list anywhere on the path.  (The end-to-end legs
run the in-process backend: subprocess workers cannot see kernels
registered only in the parent.)
"""

from __future__ import annotations

import sys

import pytest

from repro.api import Session
from repro.graphs.bitgraph import BitGraph
from repro.graphs.generators import paper_example_graph
from repro.graphs.kernels import (
    KernelSpec,
    register_kernel,
    unregister_kernel,
)
from repro.service.protocol import (
    ProtocolError,
    ServiceRequest,
    graph_to_wire,
    parse_request,
    serialize_answers,
)

TEST_KERNEL = "test-wire"


@pytest.fixture
def wire_kernel():
    spec = register_kernel(
        KernelSpec(
            name=TEST_KERNEL,
            description="bitset rebadged for wire-validation tests",
            build=lambda graph, indexer=None: BitGraph.from_graph(
                graph, indexer
            ),
        )
    )
    try:
        yield spec
    finally:
        unregister_kernel(TEST_KERNEL)


class TestRequestValidation:
    def test_registered_kernel_accepted_in_frames(self, wire_kernel):
        frame = {
            "type": "request",
            "op": "top",
            "graph": graph_to_wire(paper_example_graph()),
            "cost": "fill",
            "k": 3,
            "kernel": TEST_KERNEL,
        }
        request = parse_request(frame)
        assert request.kernel == TEST_KERNEL
        # And survives a wire round trip.
        assert parse_request(request.to_frame()).kernel == TEST_KERNEL

    def test_unregistered_kernel_rejected_with_registry_names(self):
        with pytest.raises(ProtocolError, match="sets"):
            ServiceRequest(
                op="top", graph=paper_example_graph(), k=3, kernel="gpu"
            )

    def test_auto_normalized_to_concrete_name_at_parse_time(self):
        request = ServiceRequest(
            op="top", graph=paper_example_graph(), k=3, kernel="auto"
        )
        assert request.kernel == "bitset"
        # The wire default and the library default name the same kernel.
        assert ServiceRequest(op="stats").kernel == Session().kernel_name

    def test_unavailable_kernel_rejected(self, wire_kernel):
        # The deleted numpy kernel is refused like any unknown name...
        frame = {
            "type": "request",
            "op": "top",
            "graph": graph_to_wire(paper_example_graph()),
            "k": 3,
            "kernel": "numpy",
        }
        with pytest.raises(ProtocolError, match="unknown graph kernel 'numpy'"):
            parse_request(frame)
        # ...and so is a kernel once it has been unregistered.
        frame["kernel"] = TEST_KERNEL
        assert parse_request(frame).kernel == TEST_KERNEL
        unregister_kernel(TEST_KERNEL)
        try:
            with pytest.raises(ProtocolError, match="unknown graph kernel"):
                parse_request(frame)
        finally:
            register_kernel(wire_kernel)

    def test_auto_degrades_on_the_wire(self, monkeypatch):
        # With numpy unimportable, "auto" on the wire is still "bitset".
        monkeypatch.setitem(sys.modules, "numpy", None)
        request = ServiceRequest(
            op="top", graph=paper_example_graph(), k=3, kernel="auto"
        )
        assert request.kernel == "bitset"


class TestEndToEnd:
    def test_registered_kernel_served_by_gateway(self, wire_kernel):
        from repro.gateway import GatewayClient, GatewayError, GatewayThread

        graph = paper_example_graph()
        expected = serialize_answers(
            Session(kernel="bitset").top(graph, "fill", k=3).results
        )
        with GatewayThread(max_workers=1) as handle:
            client = GatewayClient(*handle.address, timeout=60.0)
            result = client.submit(
                {
                    "op": "top",
                    "graph": graph_to_wire(graph),
                    "cost": "fill",
                    "k": 3,
                    "kernel": TEST_KERNEL,
                }
            ).collect()
            assert result.answer_lines == expected
            # The HTTP door refuses the deleted numpy kernel as unknown.
            with pytest.raises(GatewayError) as excinfo:
                client.submit(
                    {
                        "op": "top",
                        "graph": graph_to_wire(graph),
                        "k": 3,
                        "kernel": "numpy",
                    }
                )
            assert excinfo.value.status == 400
            assert "unknown graph kernel 'numpy'" in str(excinfo.value)
            page = client.metrics()
        assert "# TYPE repro_kernel_info gauge" in page
        assert f'kernel="{TEST_KERNEL}"' in page

    def test_kernel_registry_stats_lists_registered_kernel(self, wire_kernel):
        from repro.service.scheduler import kernel_registry_stats

        stats = kernel_registry_stats()
        assert TEST_KERNEL in stats["available"]
        assert stats["registered"][TEST_KERNEL] == {
            "description": wire_kernel.description
        }
        assert stats["auto"] == "bitset"
