"""One build per key when threads miss on it together.

``Session`` builds a context, a preprocessing plan or a prepared DP table
with no lock held.  Each test holds the first build until a second thread
has looked the same key up and missed, then checks that the second thread
is served the first one's result instead of building again — or, when the
held build raises, that the second thread builds in its place and neither
hangs.  Events, not sleeps, force that order: the held build resumes only
after the second thread's lookup has returned.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import pytest

import repro.api.session as session_mod
from repro.api import Session
from repro.core.context import TriangulationContext
from repro.graphs.generators import connected_erdos_renyi, cycle_graph, grid_graph
from repro.preprocess.recompose import PreprocessPlan

TIMEOUT = 30.0  # seconds; only a hang ever reaches it
FIRST, SECOND = "miss-first", "miss-second"
OUTCOMES = pytest.mark.parametrize(
    "fail_first", [False, True], ids=["shared", "raises-once"]
)


class LookupLog(OrderedDict):
    """A session cache that records which threads have looked a key up."""

    def __init__(self) -> None:
        super().__init__()
        self.changed = threading.Condition()
        self.lookups: set[str] = set()

    def get(self, key, default=None):
        found = super().get(key, default)
        with self.changed:
            self.lookups.add(threading.current_thread().name)
            self.changed.notify_all()
        return found

    def wait_for_lookup(self, thread_name: str) -> None:
        with self.changed:
            if not self.changed.wait_for(
                lambda: thread_name in self.lookups, TIMEOUT
            ):
                raise AssertionError(f"{thread_name} never looked the key up")


class HeldBuild:
    """``original``, with its first call held until thread ``SECOND`` has
    looked the key up in ``log`` (and then raising, if ``fail_first``)."""

    def __init__(self, original, log: LookupLog, fail_first: bool) -> None:
        self.original = original
        self.log = log
        self.fail_first = fail_first
        self.calls: list[str] = []
        self.entered = threading.Event()

    def __call__(self, *args, **kwargs):
        self.calls.append(threading.current_thread().name)
        if len(self.calls) == 1:
            self.entered.set()
            self.log.wait_for_lookup(SECOND)
            if self.fail_first:
                raise RuntimeError("the first build failed")
        return self.original(*args, **kwargs)


def race(call, held: HeldBuild):
    """Run ``call`` in thread ``FIRST`` until it is inside the held build,
    then in thread ``SECOND``; both outcomes, a value or an exception."""
    outcomes: dict = {}

    def run(name):
        try:
            outcomes[name] = call()
        except Exception as exc:
            outcomes[name] = exc

    first = threading.Thread(target=run, args=(FIRST,), name=FIRST)
    first.start()
    assert held.entered.wait(TIMEOUT), "the first build never started"
    second = threading.Thread(target=run, args=(SECOND,), name=SECOND)
    second.start()
    for thread in (first, second):
        thread.join(TIMEOUT)
        assert not thread.is_alive(), f"{thread.name} hung"
    return outcomes[FIRST], outcomes[SECOND]


def check(first, second, held: HeldBuild, fail_first: bool):
    """The second caller never builds beside a running build: it shares
    the result, or builds once the first build has failed."""
    if fail_first:
        assert isinstance(first, RuntimeError)
        assert not isinstance(second, Exception), second
        assert held.calls == [FIRST, SECOND]
    else:
        assert not isinstance(first, Exception), first
        assert held.calls == [FIRST]
    return second


@pytest.fixture
def graph():
    return connected_erdos_renyi(10, 0.35, seed=1)


@OUTCOMES
def test_context_builds_once(monkeypatch, graph, fail_first):
    session = Session()
    session._contexts = log = LookupLog()
    held = HeldBuild(TriangulationContext.build, log, fail_first)
    monkeypatch.setattr(TriangulationContext, "build", staticmethod(held))

    first, second = race(lambda: session.context(graph), held)

    context = check(first, second, held, fail_first)
    if not fail_first:
        assert first is second
    assert session.cache_info()["builds"] == 1
    assert session.context(graph) is context
    assert len(held.calls) == (2 if fail_first else 1)


@OUTCOMES
def test_prepared_table_computed_once(monkeypatch, graph, fail_first):
    session = Session(preprocess=False)
    session.context(graph)
    (entry,) = session._contexts.values()
    entry.prepared = log = LookupLog()
    held = HeldBuild(session_mod.min_triangulation_and_table, log, fail_first)
    monkeypatch.setattr(session_mod, "min_triangulation_and_table", held)

    def page(response):
        return [(r.cost, r.triangulation.bags) for r in response.results]

    first, second = race(lambda: page(session.top(graph, "fill", k=2)), held)

    served = check(first, second, held, fail_first)
    if not fail_first:
        assert first == second
    assert page(session.top(graph, "fill", k=2)) == served
    assert len(held.calls) == (2 if fail_first else 1)


@OUTCOMES
def test_plan_built_once(monkeypatch, graph, fail_first):
    session = Session()
    session._plans = log = LookupLog()
    held = HeldBuild(PreprocessPlan.build, log, fail_first)
    monkeypatch.setattr(PreprocessPlan, "build", staticmethod(held))

    first, second = race(lambda: session.plan_for(graph), held)

    plan = check(first, second, held, fail_first)
    if not fail_first:
        assert first is second
    assert session.plan_for(graph) is plan
    assert len(held.calls) == (2 if fail_first else 1)


def test_many_threads_one_build_per_graph(monkeypatch):
    """More threads than cores, switching every microsecond: each graph's
    context is built once and its DP table computed once, and every
    thread on one graph is served the same page."""
    graphs = [grid_graph(4, 4), grid_graph(3, 5), cycle_graph(12)]
    threads_per_graph = 4
    session = Session(preprocess=False)
    tables = []
    original = session_mod.min_triangulation_and_table

    def counting(*args, **kwargs):
        tables.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(session_mod, "min_triangulation_and_table", counting)
    pages: dict = {}
    start = threading.Barrier(len(graphs) * threads_per_graph)

    def serve(i):
        start.wait(TIMEOUT)
        response = session.top(graphs[i % len(graphs)], "fill", k=3)
        pages[i] = [(r.cost, r.triangulation.bags) for r in response.results]

    threads = [
        threading.Thread(target=serve, args=(i,))
        for i in range(len(graphs) * threads_per_graph)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
            assert not thread.is_alive(), "a thread hung"
    finally:
        sys.setswitchinterval(interval)

    assert len(pages) == len(threads)
    for i, page in pages.items():
        assert page == pages[i % len(graphs)]
    assert session.cache_info()["builds"] == len(graphs)
    assert len(tables) == len(graphs)
