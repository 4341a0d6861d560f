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
import threading

import pytest

from repro.api import EnumerationRequest, Session, load_checkpoint
from repro.graphs.generators import cycle_graph, paper_example_graph, petersen_graph
from repro.service.protocol import (
    ServiceRequest,
    decode_token,
    terminal_frame,
    verify_token,
)
from repro.service.scheduler import EnumerationScheduler

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
    pytest.param(
        "top", petersen_graph(), "fill", {"k": 4, "answer_budget": 2},
        id="top-answer-budget",
    ),
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
