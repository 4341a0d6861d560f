"""Session integration with the persistent artifact store.

A cold session publishes every artifact it builds; a second session on
the same cache directory answers from disk without rebuilding any of
them.
"""

from __future__ import annotations

from itertools import islice

import pytest

from repro.api import Session
from repro.graphs.generators import connected_erdos_renyi, grid_graph


@pytest.fixture
def graph():
    return connected_erdos_renyi(10, 0.35, seed=11)


def _disk(session):
    return session.cache_info()["disk"]


def test_cold_session_publishes_all_kinds(tmp_path, graph):
    with Session(cache_dir=tmp_path / "c") as session:
        session.top(graph, "fill", k=5)
        kinds = _disk(session)["kinds"]
        assert kinds["context"]["stores"] >= 1
        assert kinds["prepared"]["stores"] >= 1
        assert kinds["plan"]["stores"] >= 1
        assert kinds["context"]["hits"] == 0


def test_warm_session_builds_nothing(tmp_path, graph):
    path = tmp_path / "c"
    with Session(cache_dir=path) as cold:
        cold.top(graph, "fill", k=5)
        cold_builds = cold.cache_info()["builds"]
    assert cold_builds >= 1
    with Session(cache_dir=path) as warm:
        response = warm.top(graph, "fill", k=5)
        info = warm.cache_info()
        assert info["builds"] == 0
        kinds = info["disk"]["kinds"]
        # The whole request was replayed from the cached answer prefix —
        # no init artifact was even consulted, let alone rebuilt.
        assert response.stats.engine == "cache"
        assert kinds["answers"]["hits"] >= 1
        for kind in ("answers", "context", "prepared", "plan"):
            assert kinds[kind]["misses"] == 0
            assert kinds[kind]["stores"] == 0


def test_warm_session_replays_init_kinds_for_streams(tmp_path, graph):
    """The init artifacts still serve paths the answer cache cannot:
    an open-ended ``stream`` (no k) consults context/prepared/plan."""
    path = tmp_path / "c"
    with Session(cache_dir=path) as cold:
        cold.top(graph, "fill", k=5)
    with Session(cache_dir=path) as warm:
        stream = warm.stream(graph, "fill")
        try:
            next(iter(stream), None)
        finally:
            stream.close()
        info = warm.cache_info()
        assert info["builds"] == 0
        kinds = info["disk"]["kinds"]
        assert kinds["context"]["hits"] >= 1
        assert kinds["prepared"]["hits"] >= 1
        assert kinds["plan"]["hits"] >= 1
        for kind in ("context", "prepared", "plan"):
            assert kinds[kind]["misses"] == 0
            assert kinds[kind]["stores"] == 0


def test_kernel_keys_are_separate(tmp_path, graph):
    path = tmp_path / "c"
    with Session(cache_dir=path, kernel="bitset") as bitset:
        bitset.top(graph, "width", k=3)
    with Session(cache_dir=path, kernel="sets") as sets:
        # Answer prefixes carry no kernel (every kernel enumerates the
        # same sequence), so ``top`` would replay the bitset record; a
        # stream never probes them and reaches the context lookup.
        stream = sets.stream(graph, "width")
        try:
            costs = [result.cost for result in islice(stream, 3)]
        finally:
            stream.close()
        kinds = _disk(sets)["kinds"]
        # A bitset-warmed cache must not satisfy a sets-kernel session's
        # context lookups; the plan is kernel-independent and may hit.
        assert kinds["context"]["misses"] >= 1
        assert kinds["context"]["hits"] == 0
        assert sets.cache_info()["builds"] >= 1
    with Session(kernel="bitset") as plain:
        expected = plain.top(graph, "width", k=3)
    assert costs == [r.cost for r in expected.results]


def test_width_bound_keys_are_separate(tmp_path):
    graph = grid_graph(3, 3)
    path = tmp_path / "c"
    with Session(cache_dir=path) as first:
        first.top(graph, "width", k=3, preprocess=False)
    with Session(cache_dir=path) as second:
        second.top(graph, "width", k=3, width_bound=4, preprocess=False)
        kinds = _disk(second)["kinds"]
        assert kinds["context"]["hits"] == 0
        assert kinds["context"]["misses"] >= 1


def test_session_owned_store_closes_with_session(tmp_path, graph):
    session = Session(cache_dir=tmp_path / "c")
    store = session.store
    assert store is not None
    session.top(graph, "width", k=3)
    session.close()
    assert session.store is None
    # close() released the sqlite handle: the store is now inert.
    assert store.get("context", "anything") is None


def test_cacheless_session_reports_no_disk(graph):
    with Session() as session:
        session.top(graph, "width", k=3)
        assert "disk" not in session.cache_info()
