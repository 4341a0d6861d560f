"""The readers of a ranked stream settle its last answer's children.

``next()`` returns an answer as soon as it is popped and parks it; the
parked answer's children (a direct stream) or successors (a composed
stream) are solved at the next pull or by the first reader of the
frontier or the work count: ``checkpoint()``, ``exhausted`` and
``expansions``.  Whatever order they come in, the readers must see what
a stream that solved every child before returning would show, and a
``close()`` in between must not change it.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.api.stream import RankedStream
from repro.engine import strategy
from repro.graphs.generators import connected_erdos_renyi, cycle_graph
from repro.graphs.io import parse_gr
from repro.preprocess.recompose import ComposedRankedStream

#: Two 5-cycles sharing the edge 1-2: the clique separator {1, 2} splits
#: it into two atoms, so the session serves it through a composed stream.
TWO_CYCLES = "p tw 8 9\n1 2\n2 3\n3 4\n4 5\n5 1\n2 6\n6 7\n7 8\n8 1\n"

KINDS = {
    "direct": (lambda: connected_erdos_renyi(10, 0.35, seed=0), RankedStream),
    "composed": (lambda: parse_gr(TWO_CYCLES), ComposedRankedStream),
}
PULLS = (0, 1, 2, 5, 9)

READERS = {
    "checkpoint": lambda stream: stream.checkpoint().to_bytes(),
    "exhausted": lambda stream: stream.exhausted,
    "expansions": lambda stream: stream.expansions,
}


def _opened(kind: str, width_bound):
    graph, kind_class = KINDS[kind]
    session = Session(preprocess=kind == "composed")
    stream = session.stream(graph(), "fill", width_bound=width_bound)
    assert isinstance(stream, kind_class)
    return stream


def _pulled(kind: str, width_bound, n: int):
    stream = _opened(kind, width_bound)
    for _ in range(n):
        next(stream)
    return stream


@pytest.mark.parametrize("n", PULLS)
@pytest.mark.parametrize("width_bound", [None, 3])
@pytest.mark.parametrize("kind", KINDS)
class TestReadersAfterPulls:
    def test_checkpoint_is_the_same_before_and_after_close(
        self, kind, width_bound, n
    ):
        open_stream = _pulled(kind, width_bound, n)
        expected = open_stream.checkpoint().to_bytes()
        closed = _pulled(kind, width_bound, n)
        closed.close()
        assert closed.checkpoint().to_bytes() == expected
        with pytest.raises(StopIteration):
            next(closed)

    def test_expansions_and_exhausted_read_alike_in_either_order(
        self, kind, width_bound, n
    ):
        first = _pulled(kind, width_bound, n)
        expansions = first.expansions
        exhausted = first.exhausted
        second = _pulled(kind, width_bound, n)
        assert second.exhausted == exhausted
        assert second.expansions == expansions


@pytest.mark.parametrize(
    "graph, answers",
    [(lambda: cycle_graph(4), 2), (lambda: cycle_graph(5), 5), (lambda: parse_gr(TWO_CYCLES), 25)],
    ids=["C4", "C5", "two-C5"],
)
def test_exhausted_right_after_the_last_answer(graph, answers):
    stream = Session().stream(graph(), "fill")
    for _ in range(answers - 1):
        next(stream)
        assert not stream.exhausted
    next(stream)
    assert stream.exhausted
    with pytest.raises(StopIteration):
        next(stream)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("width_bound", [None, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_child_dps_run_in_the_reader_not_the_pull(
    kind, width_bound, reader, monkeypatch
):
    """With a reader after every pull, every ``expand_job`` call happens
    inside a reader: a pull returns its answer before it solves its
    children."""
    calls = []
    original = strategy.expand_job

    def counted(*args):
        calls.append(args)
        return original(*args)

    stream = _opened(kind, width_bound)
    monkeypatch.setattr(strategy, "expand_job", counted)
    read = READERS[reader]
    for _ in range(max(PULLS)):
        before = len(calls)
        try:
            next(stream)
        except StopIteration:
            break
        assert len(calls) == before
        read(stream)
    assert calls
    assert stream.expansions == len(calls)
