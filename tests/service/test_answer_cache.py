"""Scheduler-level answer-prefix serving (ISSUE 9 acceptance).

A repeat ``top``/``enumerate`` request against a warmed cache must be
served from disk without consuming an executor slot or a worker seat —
on both execution backends — with answer bytes identical to live
enumeration, and the serve must be observable (``answers_served``
scheduler counter, ``engine == "cache"`` terminal frame, untouched
worker sessions).  A longer request replays the stored head and runs
only its rest live.  Both layers read and write one record: a prefix a
``Session`` stored serves the server, and the reverse.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.graphs.generators import connected_erdos_renyi, petersen_graph
from repro.service import ServerThread, ServiceClient
from repro.service.protocol import StatsFrame, serialize_answers

K = 6


@pytest.fixture(autouse=True)
def _isolated_cache_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    monkeypatch.delenv("REPRO_TOKEN_SECRET", raising=False)


def server(backend, cache_dir=None, **options):
    if cache_dir is not None:
        options["cache_dir"] = str(cache_dir)
    return ServerThread(backend=backend, **options)


def test_repeat_top_serves_without_worker_seat(tmp_path, backend):
    graph = connected_erdos_renyi(10, 0.35, seed=0)
    cache_dir = tmp_path / "cache"
    with server(backend, cache_dir) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        live = client.top(graph, "fill", k=K)
    assert isinstance(live.terminal, StatsFrame)
    assert live.terminal.engine != "cache"

    with server(backend, cache_dir) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        warm = client.top(graph, "fill", k=K)
        stats = ServiceClient(*handle.address, timeout=60.0).service_stats()

    assert warm.answer_lines == live.answer_lines
    assert isinstance(warm.terminal, StatsFrame)
    assert warm.terminal.engine == "cache"
    assert warm.terminal.emitted == K
    assert stats.scheduler["answers_served"] >= 1
    # Zero worker dispatch: the job never reached a worker seat, so no
    # worker session was ever opened for the graph's kernel.
    for row in stats.workers:
        assert not row.get("sessions"), row


def test_extension_write_back_then_pure_hit(tmp_path, backend):
    """k'=2K after a warmed k=K: live bytes match a cache-less server,
    and the extended prefix then serves the repeat entirely from disk."""
    graph = connected_erdos_renyi(10, 0.35, seed=0)
    with server(backend) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        reference = client.top(graph, "fill", k=2 * K)

    cache_dir = tmp_path / "cache"
    with server(backend, cache_dir) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        client.top(graph, "fill", k=K)
    with server(backend, cache_dir) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        extended = client.top(graph, "fill", k=2 * K)
        repeat = client.top(graph, "fill", k=2 * K)
        stats = ServiceClient(*handle.address, timeout=60.0).service_stats()

    assert extended.answer_lines == reference.answer_lines
    assert repeat.answer_lines == reference.answer_lines
    assert isinstance(repeat.terminal, StatsFrame)
    assert repeat.terminal.engine == "cache"
    assert stats.scheduler["answers_served"] >= 1


def test_partly_covered_page_runs_only_its_rest_live(tmp_path, backend):
    """k'=2K over a stored k=K prefix replays the stored head and runs
    only the rest live, from the record's frontier: a cache-less
    server's bytes for fewer expansions than a cold k'=2K run.  The
    graph has more than k' answers, so the live rest does real work."""
    graph = petersen_graph()
    with server(backend, tmp_path / "cold") as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        cold = client.top(graph, "fill", k=2 * K)

    cache_dir = tmp_path / "cache"
    with server(backend, cache_dir) as handle:
        ServiceClient(*handle.address, timeout=120.0).top(graph, "fill", k=K)
    with server(backend, cache_dir) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        extended = client.top(graph, "fill", k=2 * K)

    assert extended.answer_lines == cold.answer_lines
    assert isinstance(extended.terminal, StatsFrame)
    assert extended.terminal.engine != "cache"
    assert extended.terminal.emitted == cold.terminal.emitted
    assert extended.terminal.exhausted == cold.terminal.exhausted
    assert 0 < extended.terminal.expansions < cold.terminal.expansions


def test_token_resume_serves_from_disk(tmp_path, backend):
    """A resume token whose page is covered by the cached prefix replays
    from disk on a fresh server sharing the signing key."""
    graph = connected_erdos_renyi(10, 0.35, seed=2)
    key = b"answer-cache-suite"
    cache_dir = tmp_path / "cache"
    with server(backend, cache_dir, token_key=key) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        page = client.top(graph, "fill", k=4)
        token = page.checkpoint
        first_rest = client.resume(token, k=4)
    assert token is not None

    with server(backend, cache_dir, token_key=key) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        rest = client.resume(token, k=4)
        stats = ServiceClient(*handle.address, timeout=60.0).service_stats()

    assert rest.answer_lines == first_rest.answer_lines
    assert isinstance(rest.terminal, StatsFrame)
    assert rest.terminal.engine == "cache"
    assert [a.rank for a in rest.answers] == [4, 5, 6, 7]
    assert stats.scheduler["answers_served"] >= 1
    for row in stats.workers:
        assert not row.get("sessions"), row


def test_cached_serve_returns_resumable_token(tmp_path, backend):
    """The checkpoint on a cache-served terminal frame is a live token:
    resuming it continues the exact sequence."""
    graph = connected_erdos_renyi(10, 0.35, seed=0)
    cache_dir = tmp_path / "cache"
    with server(backend, cache_dir) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        # k=K first so the record keeps an interior checkpoint at K,
        # making the later k=K page servable from disk.
        client.top(graph, "fill", k=K)
        live = client.top(graph, "fill", k=2 * K)
    with server(backend, cache_dir) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        warm = client.top(graph, "fill", k=K)
        assert warm.terminal.engine == "cache"
        token = warm.checkpoint
        assert token is not None
        rest = client.resume(token, k=K)
    got = list(warm.answer_lines) + list(rest.answer_lines)
    assert got == list(live.answer_lines)


def test_session_written_prefix_serves_the_server(tmp_path, backend):
    graph = connected_erdos_renyi(10, 0.35, seed=0)
    cache_dir = tmp_path / "cache"
    with Session(cache_dir=cache_dir) as session:
        session.top(graph, "fill", k=K)
    with server(backend) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        reference = client.top(graph, "fill", k=K)

    with server(backend, cache_dir) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        served = client.top(graph, "fill", k=K)
        stats = ServiceClient(*handle.address, timeout=60.0).service_stats()

    assert served.answer_lines == reference.answer_lines
    assert isinstance(served.terminal, StatsFrame)
    assert served.terminal.engine == "cache"
    assert stats.scheduler["answers_served"] >= 1
    for row in stats.workers:
        assert not row.get("sessions"), row


def test_server_written_prefix_replays_in_a_session(tmp_path, backend):
    graph = connected_erdos_renyi(10, 0.35, seed=0)
    cache_dir = tmp_path / "cache"
    with server(backend, cache_dir) as handle:
        client = ServiceClient(*handle.address, timeout=120.0)
        live = client.top(graph, "fill", k=K)
    assert live.terminal.engine != "cache"

    with Session(cache_dir=cache_dir) as session:
        replay = session.top(graph, "fill", k=K)
    with Session() as plain:
        reference = plain.top(graph, "fill", k=K)

    assert replay.stats.engine == "cache"
    assert serialize_answers(replay.results) == serialize_answers(reference.results)
    assert serialize_answers(replay.results) == list(live.answer_lines)
