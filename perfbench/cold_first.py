"""cold-first: one long-lived ``Session`` meets graphs it has never seen.

Each request opens ``Session.stream`` on a fresh graph and takes a few
answers, so context init (minimal separators, PMCs, blocks), the
preprocessing plan and the base DP sit on the first answer's path.
"""

from __future__ import annotations

import time

from repro.api import Session

from .common import Report, peak_rss_mb_self
from .inputs import cold_first_requests, warmup_graphs
from .library import (
    Page,
    check_pages,
    one_cpu,
    pin_pages,
    report_layers,
    report_pages,
    take,
    timed_setup,
    traced_passes,
)
from .oracle import oracle_answers
from .speed import SpeedProbe

K = 2
#: Requests per second of ``--seconds`` on a 2-vCPU x86 VM.
REQUESTS_PER_SECOND = 28
MIN_REQUESTS = 100
#: The timed phase runs in segments with set-ups timed between them, so
#: the set-up samples spread over the run (see ranked_deep).
SEGMENTS = 6
SETUPS_PER_SEGMENT = 2


def _warm() -> Session:
    session = Session()
    for graph in warmup_graphs():
        for cost in ("width", "fill"):
            stream = session.stream(graph, cost)
            take(Page(request="warm-up", issued=0.0), stream, K)
            stream.close()
    return session


def _timed(session: Session, requests, tracer, probe: SpeedProbe) -> list[Page]:
    out: list[Page] = []
    for req in requests:
        probe.tick()
        if tracer is not None:
            tracer.request = req.name
        page = Page(request=req.name, issued=time.perf_counter())
        out.append(page)
        try:
            stream = session.stream(req.graph, req.cost, width_bound=req.width_bound)
            take(page, stream, K)
            stream.close()
        except Exception as exc:  # counted, never fatal to the run
            page.error = repr(exc)
        page.finished = time.perf_counter()
    return out


def run(args, report: Report) -> None:
    count = 10 if args.tiny else max(MIN_REQUESTS, args.seconds * REQUESTS_PER_SECOND)
    requests = cold_first_requests(args.seed, count)
    if args.trace:
        # Untraced, traced, untraced over one third of the requests each,
        # every pass on a fresh session, so every graph is unseen again.
        # The sessions are warmed before tracing starts, so the traced
        # pass counts only its own requests.
        third = requests[: max(1, count // 3)]
        sessions = iter([_warm() for _ in range(3)])
        probe = SpeedProbe()
        tracer, results, overhead = traced_passes(
            lambda tracer: _timed(next(sessions), third, tracer, probe), probe
        )
        report_layers(report, tracer, overhead)
        tracer.write(args.trace_file)
        layers = tracer.layer_metrics()
        init_ms = layers["context.build_ms"][0] + layers["preprocess.plan_ms"][0] + layers["base_dp.ms"][0]
        expand_ms = layers["expand.ms"][0]
        report.split_check(
            "cold-first init (context + plan + base DP) exceeds expand",
            init_ms > expand_ms, f"{init_ms:.1f} vs {expand_ms:.1f} ms",
        )
    else:
        # One long-lived session takes every request; before each segment,
        # set-up is timed again on fresh sessions that are then dropped.
        segments = 1 if args.tiny else SEGMENTS
        probe = SpeedProbe()
        setups, results, session = [], [], None
        with one_cpu():
            for index in range(segments):
                part = requests[index * count // segments:(index + 1) * count // segments]
                samples, warmed = timed_setup(2 if args.tiny else SETUPS_PER_SEGMENT, _warm, probe)
                session = session or warmed
                done = _timed(session, part, None, probe)
                probe.probe()
                setups += samples
                results += done
        report_pages(report, results, setups, peak_rss_mb_self(), probe)

    checked = time.perf_counter()
    asked = {page.request for page in results}
    checked_requests = [req for req in requests if req.name in asked]
    answers = oracle_answers(
        [("ranked", req.graph, req.cost, K, req.width_bound) for req in checked_requests]
    )
    expected = {req.name: full for req, full in zip(checked_requests, answers)}
    check_pages(report, results, expected, args.inject_wrong_answer)
    if not args.trace:  # the traced run covers a third of the requests
        pin_pages(report, "cold-first", args, results)
    report.note(f"oracle check {time.perf_counter() - checked:.1f} s")
