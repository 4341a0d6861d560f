"""ranked-deep: chains of consecutive pages through a warm ``Session``.

Set-up builds every context, preprocessing plan and unconstrained DP
table, so the timed phase is the Lawler-Murty loop alone: each chain
opens with ``Session.stream`` and every later page resumes from the
previous page's checkpoint bytes with ``Session.resume_stream``.  Every
pass runs the same chains on its own warm session, in an order drawn
from the seed.
"""

from __future__ import annotations

import random
import time

from repro.api import Session

from . import tracing
from .common import Report, peak_rss_mb_self
from .inputs import COSTS, ranked_deep_graphs
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

K = 5
PAGES = 8
#: Seconds one pass over all chains takes on a 2-vCPU x86 VM; ``--seconds``
#: sets how many passes run (at least one).
PASS_SECONDS = 5.0
#: Set-ups timed before each pass.  Spreading the samples over the run
#: keeps one slow stretch of the machine from setting their median.
SETUPS_PER_PASS = 3


def _chains(tiny: bool):
    """``(request prefix, graph, cost)`` of every chain."""
    return [
        (f"{name}/{cost}", graph, cost)
        for name, graph in ranked_deep_graphs(tiny)
        for cost in COSTS
    ]


def _ordered(chains, seed: int, part: int):
    """Pass ``part``'s chains in the order the seed draws for it."""
    out = list(chains)
    random.Random(f"ranked-deep:{seed}:{part}").shuffle(out)
    return [(f"pass{part}/{prefix}", graph, cost) for prefix, graph, cost in out]


def _warm(chains):
    def warm() -> Session:
        session = Session()
        for _name, graph, cost in chains:
            session.stream(graph, cost).close()
        return session

    return warm


def _timed(session: Session, chains, k: int, pages: int, tracer, probe: SpeedProbe) -> list[Page]:
    out: list[Page] = []
    for prefix, graph, cost in chains:
        token = None
        for p in range(pages):
            probe.tick()
            request = f"{prefix}/page{p}"
            if tracer is not None:
                tracer.request = request
            page = Page(request=request, issued=time.perf_counter())
            out.append(page)
            try:
                stream = (
                    session.stream(graph, cost)
                    if token is None
                    else session.resume_stream(token)
                )
                take(page, stream, k)
                if tracer is not None:
                    with tracer.span(tracing.CHECKPOINT):
                        token = stream.checkpoint().to_bytes()
                    tracer.token_sizes.append(len(token))
                else:
                    token = stream.checkpoint().to_bytes()
                stream.close()
            except Exception as exc:  # counted, never fatal to the run
                page.error = repr(exc)
                break
            finally:
                page.finished = time.perf_counter()
    return out


def run(args, report: Report) -> None:
    k, pages = (3, 3) if args.tiny else (K, PAGES)
    passes = 1 if args.tiny else max(1, round(args.seconds / PASS_SECONDS))
    chains = _chains(args.tiny)
    first = _ordered(chains, args.seed, 0)
    if args.trace:
        # The first pass's chains three times: untraced, traced, untraced.
        session = _warm(first)()
        probe = SpeedProbe()
        tracer, results, overhead = traced_passes(
            lambda tracer: _timed(session, first, k, pages, tracer, probe), probe
        )
        report_layers(report, tracer, overhead)
        tracer.write(args.trace_file)
        layers = tracer.layer_metrics()
        stream_ms = tracer.stream_ms()
        expand_ms = layers["expand.ms"][0]
        report.split_check(
            "ranked-deep builds no context in its timed phase",
            layers["context.builds"][0] == 0, f"context.builds={layers['context.builds'][0]}",
        )
        report.split_check(
            "ranked-deep expand.ms >= 90% of stream time",
            expand_ms >= 0.9 * stream_ms, f"{expand_ms:.1f} of {stream_ms:.1f} ms",
        )
    else:
        # Before each pass, set-up is timed on fresh sessions warmed on
        # the chains; the last one serves the pass.
        probe = SpeedProbe()
        setups, results = [], []
        with one_cpu():
            for part in range(passes):
                mine = first if part == 0 else _ordered(chains, args.seed, part)
                samples, session = timed_setup(2 if args.tiny else SETUPS_PER_PASS, _warm(mine), probe)
                done = _timed(session, mine, k, pages, None, probe)
                session = None  # freed before the next pass's set-ups are timed
                probe.probe()
                setups += samples
                results += done
        report_pages(report, results, setups, peak_rss_mb_self(), probe)

    checked = time.perf_counter()
    answers = oracle_answers([("ranked", graph, cost, k * pages, None) for _prefix, graph, cost in chains])
    full = {prefix: answers for (prefix, _graph, _cost), answers in zip(chains, answers)}
    expected = {}
    for part in range(passes):
        for prefix, answers in full.items():
            for p in range(pages):
                expected[f"pass{part}/{prefix}/page{p}"] = answers[p * k:(p + 1) * k]
    check_pages(report, results, expected, args.inject_wrong_answer)
    # The pin covers the first pass, which a traced run repeats.
    pin_pages(report, "ranked-deep", args, results[: len(first) * pages])
    report.note(f"oracle check {time.perf_counter() - checked:.1f} s")
