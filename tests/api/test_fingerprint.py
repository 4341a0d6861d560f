"""``graph_fingerprint`` digests are cache keys, token fields and stored
record keys, so they must never move, whatever the hashing code does to
get them.  Each case includes an isolated vertex."""

from __future__ import annotations

import pytest

from repro.api.fingerprint import canonical_edges, graph_fingerprint
from repro.graphs.graph import Graph
from repro.graphs.ordering import vertex_sort_key

CASES = {
    "int": (
        Graph(vertices=range(6), edges=[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]),
        "88bfab91830500f1cf35ad5d148d84c83c097ce59bce388c8505feb96a2666d9",
    ),
    "str": (
        Graph(
            vertices=["b", "a", "c", "d", "e"],
            edges=[("b", "a"), ("c", "a"), ("d", "c")],
        ),
        "8999d859bcc31e95d6d01e4747fb89b4a2d9c439e3836de6ec71854132e2d5f7",
    ),
    "float": (
        Graph(
            vertices=[2.5, 0.5, 1.0, -3.25],
            edges=[(2.5, 0.5), (0.5, 1.0)],
        ),
        "2d2073c1f54a46c002006e307f486ba36678bf3a126c3d2bdb945fa60b981908",
    ),
    "tuple": (
        Graph(
            vertices=[(1, 0), (0, 1), (0, 0), (1, 1)],
            edges=[((0, 0), (0, 1)), ((1, 1), (0, 1))],
        ),
        "7fbddfb4da39b7d4eec4fadfb57a2698117b0616c771e5dc2e802a5fd7583118",
    ),
    "mixed": (
        Graph(
            vertices=[3, "x", 1.5, (0, "y"), True, "é"],
            edges=[(3, "x"), ("x", 1.5), ((0, "y"), 3), ("é", 1.5)],
        ),
        "f115604ad0d6e525f87cab454d361b8fa6d3692fc7bf08236407103f86812005",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_is_pinned(name):
    graph, digest = CASES[name]
    assert graph_fingerprint(graph) == digest


def test_insertion_order_never_leaks():
    graph, digest = CASES["mixed"]
    vertices = list(graph.vertices)[::-1]
    edges = [(v, u) for u, v in graph.edges()][::-1]
    assert graph_fingerprint(Graph(vertices=vertices, edges=edges)) == digest


def test_canonical_edges_are_endpoint_sorted_in_key_order():
    graph, _digest = CASES["mixed"]
    edges = canonical_edges(graph)
    keys = [(vertex_sort_key(u), vertex_sort_key(v)) for u, v in edges]
    assert all(a <= b for a, b in keys)
    assert keys == sorted(keys)
