"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.api import Session
from repro.graphs.graph import Graph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    paper_example_graph,
    path_graph,
    tree_graph,
)

# Hypothesis profiles: "ci" derandomizes example generation so the
# property suite — in particular the kernel-differential tests — explores
# the same cases on every run (the CI workflow exports
# HYPOTHESIS_PROFILE=ci).  Per-test @settings(...) decorators still apply
# on top; only the attributes they set are overridden.
settings.register_profile("dev", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


#: The execution backends the serving tests run under: both by default;
#: CI runs one per leg through ``REPRO_SERVICE_BACKENDS`` (comma-separated).
SERVICE_BACKENDS = tuple(
    name.strip()
    for name in os.environ.get(
        "REPRO_SERVICE_BACKENDS", "inprocess,process"
    ).split(",")
    if name.strip()
)

#: Skips a test of the process backend alone when the run excludes it.
needs_process_backend = pytest.mark.skipif(
    "process" not in SERVICE_BACKENDS,
    reason="process backend excluded by REPRO_SERVICE_BACKENDS",
)


@pytest.fixture(scope="module", params=SERVICE_BACKENDS)
def backend(request) -> str:
    """Each execution backend of ``SERVICE_BACKENDS`` in turn."""
    return request.param


def fill_key(graph: Graph, triangulation: Graph) -> frozenset:
    """Canonical identity of a triangulation: its fill edge set."""
    return frozenset(
        frozenset(e) for e in triangulation.edges() if not graph.has_edge(*e)
    )


def assert_equivalent_ranked(preprocessed, direct, truncated=False):
    """Ranked-sequence equality up to order within equal-cost tie runs.

    The canonical checker of the preprocessing differential harness
    (shared by ``tests/property/test_preprocess_equivalence.py`` and
    ``benchmarks/bench_preprocess.py``): pointwise-equal costs, and the
    same *set* of triangulations inside every maximal equal-cost run —
    each pipeline's order within a run is its own deterministic
    tie-break, pinned per-pipeline by the golden corpus.

    ``truncated=True`` marks sequences cut off at an answer cap: the
    final tie run may then be only partially enumerated on each side
    (legitimately different subsets), so its set comparison is skipped —
    costs are still compared pointwise all the way.
    """
    assert len(preprocessed) == len(direct)
    assert [c for c, _ in preprocessed] == [c for c, _ in direct]
    i = 0
    while i < len(direct):
        j = i
        while j < len(direct) and direct[j][0] == direct[i][0]:
            j += 1
        if truncated and j == len(direct):
            break
        assert {bags for _, bags in preprocessed[i:j]} == {
            bags for _, bags in direct[i:j]
        }, f"tie run at cost {direct[i][0]} (ranks {i}..{j - 1}) differs"
        i = j


def connected_random_graphs(n: int, p: float, count: int, seed_base: int = 0):
    """Up to ``count`` connected G(n, p) samples (deterministic seeds)."""
    out = []
    seed = seed_base
    while len(out) < count and seed < seed_base + 10 * count + 50:
        g = erdos_renyi(n, p, seed=seed)
        seed += 1
        if g.num_vertices() and g.is_connected():
            out.append(g)
    return out


@pytest.fixture
def session():
    """A fresh :class:`~repro.api.Session`, closed after the test."""
    with Session() as fresh:
        yield fresh


@pytest.fixture
def paper_graph() -> Graph:
    """The running example of the paper (Figure 1(a))."""
    return paper_example_graph()


@pytest.fixture
def small_graph_zoo() -> list[Graph]:
    """A diverse corpus of small graphs for cross-validation tests."""
    zoo = [
        path_graph(1),
        path_graph(2),
        path_graph(5),
        cycle_graph(4),
        cycle_graph(6),
        complete_graph(4),
        grid_graph(2, 3),
        grid_graph(3, 3),
        tree_graph(7, seed=1),
        paper_example_graph(),
    ]
    zoo.extend(connected_random_graphs(7, 0.4, 4, seed_base=100))
    zoo.extend(connected_random_graphs(8, 0.3, 3, seed_base=200))
    return zoo
