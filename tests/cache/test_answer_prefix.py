"""The ``answers`` artifact kind end-to-end at the session layer.

A cold session publishes the ranked answer prefix it enumerates; warm
sessions replay it (``stats.engine == "cache"``) with results identical
to live enumeration, extend it from the stored frontier when asked for
a longer prefix (a token resume included), and learn interior
checkpoints so previously-live page sizes become servable from disk.  A publish never shrinks a longer
prefix another session stored meanwhile, and a record written under one
kernel serves every kernel.
"""

from __future__ import annotations

import pytest

from repro.api import Session, StreamCheckpoint, load_checkpoint
from repro.api.stream import RankedStream
from repro.cache.answers import AnswerCache, preprocess_applies_for
from repro.graphs.generators import connected_erdos_renyi
from repro.graphs.graph import Graph
from repro.service import ServerThread, ServiceClient


@pytest.fixture
def graph():
    return connected_erdos_renyi(10, 0.35, seed=0)


def _serialize(results):
    """Timing-free canonical form of a ranked result sequence."""
    return [
        [r.cost, sorted(sorted(bag) for bag in r.triangulation.bags)]
        for r in results
    ]


def test_warm_replay_is_identical_to_live(tmp_path, graph):
    path = tmp_path / "c"
    with Session(cache_dir=path) as cold:
        live = cold.top(graph, "fill", k=8)
    assert live.stats.engine != "cache"
    with Session(cache_dir=path) as warm:
        replay = warm.top(graph, "fill", k=8)
    assert replay.stats.engine == "cache"
    assert replay.stats.emitted == live.stats.emitted
    assert replay.stats.exhausted == live.stats.exhausted
    assert _serialize(replay.results) == _serialize(live.results)
    # The replayed checkpoint is the stored frontier: both resume points
    # must designate the same next rank.
    if live.checkpoint is not None:
        assert replay.checkpoint is not None
        assert replay.checkpoint.next_rank == live.checkpoint.next_rank


def test_extension_resumes_from_stored_frontier(tmp_path, graph):
    with Session() as plain:
        reference = plain.top(graph, "fill", k=20)
    path = tmp_path / "c"
    with Session(cache_dir=path) as first:
        first.top(graph, "fill", k=5)
    with Session(cache_dir=path) as second:
        extended = second.top(graph, "fill", k=20)
        kinds = second.cache_info()["disk"]["kinds"]
        # The head replayed from disk, the tail ran live from the stored
        # checkpoint at 5 — and the longer prefix was written back.
        assert kinds["answers"]["hits"] >= 1
        assert kinds["answers"]["stores"] >= 1
    assert _serialize(extended.results) == _serialize(reference.results)
    assert extended.stats.emitted == reference.stats.emitted
    with Session(cache_dir=path) as third:
        replay = third.top(graph, "fill", k=20)
    assert replay.stats.engine == "cache"
    assert _serialize(replay.results) == _serialize(reference.results)


def test_interior_checkpoints_are_learned(tmp_path, graph):
    with Session() as plain:
        reference = plain.top(graph, "fill", k=6)
    path = tmp_path / "c"
    with Session(cache_dir=path) as warm:
        warm.top(graph, "fill", k=20)
    with Session(cache_dir=path) as session:
        # First k=3 page: the record covers positions 0..20 but has no
        # checkpoint at 3 yet, so the page runs live and learns one.
        first = session.top(graph, "fill", k=3)
        resumed = session.resume(first.checkpoint, k=3, cost="fill")
        # Second pass over the same pages: both now replay from disk.
        page = session.top(graph, "fill", k=3)
        assert page.stats.engine == "cache"
        tail = session.resume(page.checkpoint, k=3, cost="fill")
        assert tail.stats.engine == "cache"
    combined = _serialize(first.results) + _serialize(resumed.results)
    assert combined == _serialize(reference.results)
    assert _serialize(page.results) + _serialize(tail.results) == combined


def test_resume_replays_from_bytes_token(tmp_path, graph):
    path = tmp_path / "c"
    with Session(cache_dir=path) as warm:
        head = warm.top(graph, "fill", k=4)
        warm.resume(head.checkpoint, k=4, cost="fill")
    token = head.checkpoint.to_bytes()
    with Session(cache_dir=path) as session:
        replay = session.resume(token, k=4, cost="fill")
        assert replay.stats.engine == "cache"
    with Session() as plain:
        reference = plain.top(graph, "fill", k=8)
    assert _serialize(head.results) + _serialize(replay.results) == _serialize(
        reference.results
    )


def test_prefix_respects_width_bound_keys(tmp_path):
    graph = connected_erdos_renyi(10, 0.35, seed=3)
    path = tmp_path / "c"
    with Session(cache_dir=path) as first:
        first.top(graph, "width", k=3, preprocess=False)
    with Session(cache_dir=path) as second:
        bounded = second.top(
            graph, "width", k=3, width_bound=4, preprocess=False
        )
        # A different width bound is a different key: no replay.
        assert bounded.stats.engine != "cache"


def test_publish_keeps_a_longer_prefix_stored_meanwhile(tmp_path, monkeypatch):
    """Two sessions share one cache directory, and B's ``top(k=40)``
    completes after A's ``top(k=5)`` probed the store but before A
    publishes.  A's write-back must merge into B's longer record, not
    overwrite it with its own 5 answers."""
    graph = connected_erdos_renyi(12, 0.3, seed=5)
    path = tmp_path / "c"
    with Session(cache_dir=path) as a, Session(cache_dir=path) as b:
        open_job = a.job

        def job_after_b(*args, **kwargs):
            b.top(graph, "fill", k=40)
            return open_job(*args, **kwargs)

        monkeypatch.setattr(a, "job", job_after_b)
        assert a.top(graph, "fill", k=5).stats.engine != "cache"
    with Session(cache_dir=path) as fresh:
        replay = fresh.top(graph, "fill", k=40)
    with Session() as plain:
        reference = plain.top(graph, "fill", k=40)
    assert replay.stats.engine == "cache"
    assert _serialize(replay.results) == _serialize(reference.results)


@pytest.mark.parametrize("preprocess", [True, False])
def test_record_serves_every_kernel(tmp_path, graph, preprocess):
    """The answers key has no kernel: a prefix a ``bitset`` session
    wrote replays in a ``sets`` session, equal to a live ``sets`` run
    down to the constraint pairs and the stored checkpoint's bytes."""
    path = tmp_path / "c"
    with Session(cache_dir=path, kernel="bitset", preprocess=preprocess) as bitset:
        bitset.top(graph, "fill", k=8)
    with Session(kernel="sets", preprocess=preprocess) as plain:
        live = plain.top(graph, "fill", k=8)
    with Session(cache_dir=path, kernel="sets", preprocess=preprocess) as sets:
        replay = sets.top(graph, "fill", k=8)
        answers = AnswerCache(
            sets.store,
            live.stats.fingerprint,
            "fill",
            None,
            applies=preprocess_applies_for("fill", preprocess),
        )
        stored = answers.replay(answers.load(), graph, 0, 8).checkpoint
    assert replay.stats.engine == "cache"
    assert live.stats.engine != "cache"

    def rows(response):
        return [
            (r.cost, r.triangulation.bags, r.include, r.exclude)
            for r in response.results
        ]

    assert rows(replay) == rows(live)
    # The bytes a server signs into its token are the live run's; the
    # session hands back the same checkpoint decoded.
    assert stored == live.checkpoint.to_bytes()
    assert replay.checkpoint == live.checkpoint


def test_resume_inside_a_stored_prefix_extends_it(tmp_path):
    """A token inside a stored, non-exhausted prefix, asking past its
    end: the stored stretch replays, only the rest runs live from the
    record's frontier, and the longer prefix is written back."""
    graph = connected_erdos_renyi(12, 0.3, seed=5)
    path = tmp_path / "c"
    with Session(cache_dir=path) as warm:
        warm.top(graph, "fill", k=20)
        token = warm.top(graph, "fill", k=4).checkpoint.to_bytes()
    with Session() as plain:
        reference = plain.resume(token, k=30)
    with Session(cache_dir=path) as session:
        resumed = session.resume(token, k=30)
        record = AnswerCache.for_checkpoint(
            session.store, load_checkpoint(token)
        ).load()
    assert _serialize(resumed.results) == _serialize(reference.results)
    assert resumed.stats.emitted == reference.stats.emitted == 30
    assert resumed.stats.expansions < reference.stats.expansions
    assert resumed.checkpoint.next_rank == reference.checkpoint.next_rank == 34
    assert len(record.answers) == 34


def test_write_back_failure_never_fails_the_request(tmp_path):
    """Labels a token cannot encode: with a store the request still
    returns the store-less answers, and no answers record is stored."""
    a, b, c, d = (frozenset({i}) for i in range(4))
    cycle = Graph(edges=[(a, b), (b, c), (c, d), (d, a)])
    with Session() as plain:
        reference = plain.top(cycle, "fill", k=3)
    with Session(cache_dir=tmp_path / "c") as session:
        page = session.top(cycle, "fill", k=3)
        answers = AnswerCache.for_request(
            session.store, page.stats.fingerprint, "fill", None, None
        )
        assert answers.load() is None

    def rows(response):
        return [(r.cost, r.triangulation.bags) for r in response.results]

    assert len(reference.results) == 2
    assert rows(page) == rows(reference)


class TestEndCheckpointBuiltOnce:
    """A page with a store builds its end checkpoint once and encodes it
    once: the response (or the service's resume token) and the answers
    record share them."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"checkpoint": 0, "to_bytes": 0}
        checkpoint, to_bytes = RankedStream.checkpoint, StreamCheckpoint.to_bytes

        def counted_checkpoint(stream):
            counts["checkpoint"] += 1
            return checkpoint(stream)

        def counted_to_bytes(token):
            counts["to_bytes"] += 1
            return to_bytes(token)

        monkeypatch.setattr(RankedStream, "checkpoint", counted_checkpoint)
        monkeypatch.setattr(StreamCheckpoint, "to_bytes", counted_to_bytes)
        return counts

    @pytest.fixture
    def page_graph(self):
        return connected_erdos_renyi(12, 0.3, seed=64)

    def test_session_page(self, tmp_path, page_graph, counts):
        with Session(cache_dir=tmp_path / "c") as session:
            page = session.top(page_graph, "fill", k=5)
        assert page.stats.engine == "serial" and not page.stats.exhausted
        assert counts == {"checkpoint": 1, "to_bytes": 1}

    def test_inprocess_service_page(self, tmp_path, page_graph, counts):
        with ServerThread(backend="inprocess", cache_dir=str(tmp_path / "c")) as handle:
            page = ServiceClient(*handle.address, timeout=60.0).top(
                page_graph, "fill", k=5
            )
        assert page.checkpoint is not None and not page.exhausted
        assert counts == {"checkpoint": 1, "to_bytes": 1}
