"""One stop rule and one terminal record, shared with the library.

A page is a prefix of the ranked sequence cut by a cancel, a deadline
or an answer limit.  One rule (``Job.take``) checks them, in that
order, before every answer, and one record (``EnumerationStats``)
reports how the page ended: the library returns it, the service
renders it with ``terminal_frame``.  So for the same request,
``terminal_frame(Session().execute(request).stats)`` equals the
scheduler's terminal frame on either backend once the two fields that
depend on the run are dropped: ``elapsed_seconds``, and ``checkpoint``
(a library record carries no signed token).
"""

from __future__ import annotations

import asyncio
import itertools
import threading

import pytest

import repro.engine.strategy as strategy
from repro.api import EnumerationRequest, Session, load_checkpoint
from repro.api.job import Job
from repro.graphs.generators import (
    connected_erdos_renyi,
    cycle_graph,
    paper_example_graph,
    petersen_graph,
)
from repro.service.protocol import (
    ServiceRequest,
    decode_token,
    terminal_frame,
    verify_token,
)
from repro.service.scheduler import EnumerationScheduler, _JobRunner

KEY = b"stop-rule"

#: ``(op, graph, cost, fields)``: each page runs as an
#: ``EnumerationRequest`` through ``Session.execute`` and as a
#: ``ServiceRequest`` through the scheduler.
PAGES = [
    pytest.param("top", cycle_graph(7), "fill", {"k": 3}, id="top"),
    pytest.param(
        "enumerate", paper_example_graph(), "width", {}, id="enumerate-exhausted"
    ),
    pytest.param("top", cycle_graph(6), "fill", {"k": 0}, id="top-zero"),
    pytest.param("top", petersen_graph(), "fill", {"k": 2}, id="top-petersen"),
    pytest.param(
        "diverse", cycle_graph(7), "fill", {"k": 2, "min_distance": 2},
        id="diverse",
    ),
    pytest.param(
        "decompositions", cycle_graph(6), "width", {"k": 3}, id="decompositions"
    ),
]


@pytest.fixture(autouse=True)
def _isolated_cache_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)


def library_request(op, graph, cost, fields) -> EnumerationRequest:
    mode = "ranked" if op in ("enumerate", "top") else op
    return EnumerationRequest(graph=graph, cost=cost, mode=mode, **fields)


def wire_pages(backend, requests, cache_dir=None) -> list[list[dict]]:
    """Each request's frames, run one after another on one scheduler."""

    async def main():
        scheduler = EnumerationScheduler(
            backend=backend, workers=1, token_key=KEY, cache_dir=cache_dir
        )
        try:
            pages = []
            for request in requests:
                job = await scheduler.submit(request)
                pages.append(await job.drain())
            return pages
        finally:
            await scheduler.close()

    return asyncio.run(main())


def comparable(frame: dict) -> dict:
    return {
        key: value
        for key, value in frame.items()
        if key not in ("elapsed_seconds", "checkpoint")
    }


@pytest.mark.parametrize("op, graph, cost, fields", PAGES)
def test_library_record_renders_the_wire_terminal(backend, op, graph, cost, fields):
    library = Session().execute(library_request(op, graph, cost, fields))
    [frames] = wire_pages(
        backend, [ServiceRequest(op=op, graph=graph, cost=cost, **fields)]
    )
    assert frames[-1]["type"] == "stats"
    assert comparable(terminal_frame(library.stats)) == comparable(frames[-1])
    assert len(frames) - 1 == len(library.results)


def test_a_page_the_answers_tier_serves_whole(backend, tmp_path):
    """``top k=5`` twice, each surface with its own cache directory: the
    second page replays whole on both, and renders alike."""
    graph = petersen_graph()
    request = library_request("top", graph, "fill", {"k": 5})
    with Session(cache_dir=tmp_path / "library") as session:
        library = [session.execute(request) for _ in range(2)]
    wire = wire_pages(
        backend,
        [ServiceRequest(op="top", graph=graph, cost="fill", k=5)] * 2,
        cache_dir=str(tmp_path / "wire"),
    )
    assert [page.stats.engine == "cache" for page in library] == [False, True]
    assert [comparable(terminal_frame(page.stats)) for page in library] == [
        comparable(frames[-1]) for frames in wire
    ]


def test_a_deadline_before_the_first_answer(backend):
    """The library's ``time_budget`` and the wire's ``deadline`` are
    checked before the first answer alike: both pages end at rank 0."""
    graph = cycle_graph(7)
    library = Session().top(graph, "fill", k=None, time_budget=1e-9)
    [frames] = wire_pages(
        backend,
        [ServiceRequest(op="enumerate", graph=graph, cost="fill", deadline=1e-9)],
    )
    assert library.results == ()
    assert library.stats.terminal == "deadline" and library.stats.timed_out
    assert library.checkpoint.next_rank == 0
    [terminal] = frames
    assert comparable(terminal_frame(library.stats)) == comparable(terminal)
    assert terminal == {
        "type": "deadline",
        "emitted": 0,
        "next_rank": 0,
        "checkpoint": terminal["checkpoint"],
    }
    token = verify_token(KEY, decode_token(terminal["checkpoint"]))
    assert load_checkpoint(token).next_rank == 0


class TestCancel:
    """``Session.job(request, cancel=event)``: the event is checked
    before every answer, ahead of the deadline and the limit."""

    @pytest.fixture
    def opened(self):
        event = threading.Event()
        job = Session().job(
            EnumerationRequest(graph=cycle_graph(7), cost="fill"), cancel=event
        )
        yield job, event
        job.close()

    def test_an_event_set_before_the_first_answer(self, opened):
        job, event = opened
        event.set()
        assert job.take() == []
        assert job.terminal == "cancelled"
        assert job.checkpoint().next_rank == 0

    def test_an_event_set_between_answers(self, opened):
        job, event = opened
        assert len(job.take(2)) == 2
        assert job.terminal is None
        event.set()
        assert job.take() == []
        assert job.terminal == "cancelled"
        stats = job.finish()
        assert (stats.terminal, stats.emitted, stats.next_rank) == (
            "cancelled", 2, 2,
        )


class TestNoChildDPsAfterTheStop:
    """A page cut by a cancel runs no child DP after it unless its
    record needs one: a ``diverse`` or ``decompositions`` page carries no
    token and its ``cancelled`` frame renders neither ``expansions`` nor
    ``exhausted``, so :meth:`Job.finish` settles nothing and records the
    DP runs made so far, not exhausted.  A ranked page still solves the
    last answer's children, because its token carries them."""

    #: After four answers of any mode, children are still pending.
    GRAPH = connected_erdos_renyi(12, 0.3, seed=5)

    @pytest.fixture
    def child_dps(self, monkeypatch):
        """Every ``expand_job`` call, and every record ``Job.finish`` built."""
        calls, records = [], []
        expand, finish = strategy.expand_job, Job.finish

        def counting(*args):
            calls.append(args)
            return expand(*args)

        def recording(job):
            records.append(finish(job))
            return records[-1]

        monkeypatch.setattr(strategy, "expand_job", counting)
        monkeypatch.setattr(Job, "finish", recording)
        return calls, records

    @pytest.mark.parametrize(
        "op, after", [("decompositions", 0), ("diverse", 0), ("top", 4)]
    )
    def test_the_runner_slice_after_a_cancel(self, child_dps, op, after):
        calls, records = child_dps
        event = threading.Event()
        request = ServiceRequest(op=op, graph=self.GRAPH, cost="fill", k=50)
        runner = _JobRunner(
            Session(preprocess=False), request, event, KEY, fingerprint=None
        )
        frames, finished = runner.slice_(4)
        assert (len(frames), finished) == (4, False)
        event.set()
        calls.clear()
        [terminal], finished = runner.slice_(4)
        assert finished and terminal["type"] == "cancelled"
        assert len(calls) == after
        [stats] = records
        assert stats.exhausted is False
        if op != "top":
            return
        # The token still resumes exactly.
        whole = Session(preprocess=False).top(self.GRAPH, "fill", k=8).results
        token = verify_token(KEY, decode_token(terminal["checkpoint"]))
        tail = list(itertools.islice(Session().resume_stream(token), 4))
        assert [(r.rank, r.cost, r.triangulation.bags) for r in tail] == [
            (r.rank, r.cost, r.triangulation.bags) for r in whole[4:]
        ]

    @pytest.mark.parametrize("mode", ["decompositions", "diverse"])
    def test_a_library_job_after_a_cancel(self, child_dps, mode):
        calls, _records = child_dps
        event = threading.Event()
        job = Session().job(
            EnumerationRequest(graph=self.GRAPH, cost="fill", mode=mode, k=50),
            cancel=event,
        )
        assert len(job.take(4)) == 4
        event.set()
        calls.clear()
        assert job.take() == []
        stats = job.finish()
        assert stats.terminal == "cancelled"
        assert len(calls) == 0
        assert stats.exhausted is False
