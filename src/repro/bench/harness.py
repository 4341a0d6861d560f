"""Time-budgeted execution harness for the experiments.

Mirrors the paper's methodology (Section 7): per-graph wall-clock budgets
for (a) minimal-separator enumeration, (b) PMC enumeration (the Figure 5
tractability study) and (c) time-limited enumeration runs whose result
streams feed the Table 2 / Figure 8 / Figure 9 metrics.  Budgets are
scaled-down defaults (seconds instead of the paper's minutes) — the knobs
are explicit everywhere so paper-scale runs remain possible.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

from ..graphs.graph import Graph
from ..separators.berry import SeparatorLimitExceeded, minimal_separators
from ..pmc.enumerate import potential_maximal_cliques

__all__ = [
    "TractabilityProbe",
    "probe_tractability",
    "TimedResult",
    "TimedRun",
    "run_with_budget",
    "timed_results",
]

#: Classification labels of Figure 5.
TERMINATED = "terminated"
MS_TERMINATED = "ms-terminated"
NOT_TERMINATED = "not-terminated"


@dataclass(frozen=True)
class TractabilityProbe:
    """Outcome of the Figure 5 gate for one graph."""

    name: str
    status: str  # TERMINATED / MS_TERMINATED / NOT_TERMINATED
    vertices: int
    edges: int
    num_separators: int | None
    num_pmcs: int | None
    ms_seconds: float
    pmc_seconds: float


def probe_tractability(
    name: str,
    graph: Graph,
    ms_budget: float = 2.0,
    pmc_budget: float = 10.0,
) -> TractabilityProbe:
    """Classify one graph per the paper's Figure 5 protocol.

    * *Terminated*: ``MinSep(G)`` within ``ms_budget`` seconds **and**
      ``PMC(G)`` within ``pmc_budget`` seconds (paper: 60 s / 30 min).
    * *MS terminated*: separators in budget, PMCs not.
    * *Not terminated*: separators out of budget.
    """
    started = time.perf_counter()
    try:
        separators = minimal_separators(graph, deadline=time.monotonic() + ms_budget)
    except SeparatorLimitExceeded:
        return TractabilityProbe(
            name=name,
            status=NOT_TERMINATED,
            vertices=graph.num_vertices(),
            edges=graph.num_edges(),
            num_separators=None,
            num_pmcs=None,
            ms_seconds=time.perf_counter() - started,
            pmc_seconds=0.0,
        )
    ms_seconds = time.perf_counter() - started

    pmc_started = time.perf_counter()
    try:
        pmcs = potential_maximal_cliques(
            graph, separators=separators, deadline=time.monotonic() + pmc_budget
        )
    except SeparatorLimitExceeded:
        return TractabilityProbe(
            name=name,
            status=MS_TERMINATED,
            vertices=graph.num_vertices(),
            edges=graph.num_edges(),
            num_separators=len(separators),
            num_pmcs=None,
            ms_seconds=ms_seconds,
            pmc_seconds=time.perf_counter() - pmc_started,
        )
    return TractabilityProbe(
        name=name,
        status=TERMINATED,
        vertices=graph.num_vertices(),
        edges=graph.num_edges(),
        num_separators=len(separators),
        num_pmcs=len(pmcs),
        ms_seconds=ms_seconds,
        pmc_seconds=time.perf_counter() - pmc_started,
    )


@dataclass(frozen=True)
class TimedResult:
    """One result pulled from an enumeration stream."""

    elapsed_seconds: float
    width: int
    fill: int
    payload: Any = None


@dataclass
class TimedRun:
    """A time-budgeted enumeration run's trace."""

    algorithm: str
    graph_name: str
    budget_seconds: float
    init_seconds: float = 0.0
    results: list[TimedResult] = field(default_factory=list)
    exhausted: bool = False
    failed: str | None = None

    @property
    def count(self) -> int:
        return len(self.results)


def timed_results(stream, offset: float = 0.0) -> Iterator[TimedResult]:
    """Adapt a ranked-triangulation stream to :class:`TimedResult`s.

    Works with both pipeline types — the direct
    :class:`~repro.api.stream.RankedStream` and the preprocessed
    :class:`~repro.preprocess.recompose.ComposedRankedStream` — since
    both yield :class:`~repro.core.ranked.RankedResult` with a per-answer
    delay clock.  ``offset`` shifts the clock by work done before the
    stream started (e.g. a context built outside it), matching the
    paper's "init included" delay accounting.  The stream is closed even
    when the budget loop abandons it mid-iteration.
    """
    with contextlib.closing(stream):
        for result in stream:
            tri = result.triangulation
            yield TimedResult(
                elapsed_seconds=offset + result.elapsed_seconds,
                width=tri.width,
                fill=tri.fill_in(),
                payload=tri,
            )


def run_with_budget(
    algorithm: str,
    graph_name: str,
    stream_factory: Callable[[], Iterator[TimedResult]],
    budget_seconds: float,
    init_seconds: float = 0.0,
    max_results: int | None = None,
) -> TimedRun:
    """Pull results from a stream until the wall-clock budget expires.

    ``stream_factory`` is called once; each yielded :class:`TimedResult`
    must carry its own elapsed time (measured by the producer).  The
    budget is checked between results — a single long-running pull can
    overshoot, exactly as in any cooperative time-limited run.

    Initialization failures (e.g. separator blow-ups surfacing as
    :class:`SeparatorLimitExceeded`) mark the run as ``failed`` instead of
    propagating: the experiment tables report such runs as producing no
    results, as the paper does for Promedas-like cases.
    """
    run = TimedRun(
        algorithm=algorithm,
        graph_name=graph_name,
        budget_seconds=budget_seconds,
        init_seconds=init_seconds,
    )
    try:
        stream = stream_factory()
        for result in stream:
            if result.elapsed_seconds > budget_seconds:
                break  # arrived after the deadline: not counted (paper rule)
            run.results.append(result)
            if max_results is not None and run.count >= max_results:
                break
        else:
            run.exhausted = True
    except SeparatorLimitExceeded as exc:
        run.failed = str(exc)
    return run
