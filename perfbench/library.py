"""What the two library workloads (ranked-deep, cold-first) share."""

from __future__ import annotations

import contextlib
import gc
import os
import time
from dataclasses import dataclass, field

from repro.service.protocol import serialize_answers

from . import tracing
from .common import SERVICE_LAYERS, Report, median, percentile
from .oracle import corrupt, pin
from .speed import SpeedProbe


@dataclass
class Page:
    """One request: when it was issued, when each answer arrived and when
    the caller was done with it (checkpoint taken, stream closed)."""

    request: str
    issued: float
    arrivals: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)
    finished: float = 0.0
    error: str | None = None

    @property
    def first_ms(self) -> float:
        return 1000.0 * (self.arrivals[0] - self.issued)

    @property
    def kth_ms(self) -> float:
        return 1000.0 * (self.arrivals[-1] - self.issued)

    @property
    def gaps_ms(self) -> list[float]:
        return [1000.0 * (b - a) for a, b in zip(self.arrivals, self.arrivals[1:])]


def take(page: Page, stream, k: int) -> None:
    """Pull up to ``k`` answers, stamping each arrival."""
    for _ in range(k):
        try:
            result = next(stream)
        except StopIteration:
            break
        page.arrivals.append(time.perf_counter())
        page.results.append(result)


@contextlib.contextmanager
def one_cpu():
    """Run on the first allowed CPU, so the speed probe and the requests
    share one virtual CPU; every CPU comes back afterwards (the oracle
    uses them all)."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def timed_setup(repeats: int, warm, probe: SpeedProbe) -> tuple[list[tuple[float, float]], object]:
    """Run ``warm()`` ``repeats`` times on fresh objects; keep the last.

    Returns each set-up's ``(start, end)`` with the object; the probe runs
    before and after each, so every set-up has samples on both sides.
    """
    spans = []
    made = None
    for _ in range(repeats):
        made = None  # let the previous set-up go before timing the next
        gc.collect()
        probe.burst()
        started = time.perf_counter()
        made = warm()
        spans.append((started, time.perf_counter()))
        probe.burst()
    return spans, made


def report_pages(
    report: Report,
    pages: list[Page],
    setups: list[tuple[float, float]],
    rss_mb: float,
    probe: SpeedProbe,
) -> None:
    """The end-to-end metrics of a library workload's untraced pass, in
    calibrated time (see ``speed``); the raw wall-time figures are printed
    beside them."""
    served = [p for p in pages if p.arrivals and p.error is None]
    factor = {id(p): probe.factor(p.issued, p.finished) for p in pages}
    report.latency("first_answer_ms", [p.first_ms * factor[id(p)] for p in served])
    report.latency("kth_answer_ms", [p.kth_ms * factor[id(p)] for p in served])
    answers = sum(len(p.results) for p in pages)
    busy = sum((p.finished - p.issued) * factor[id(p)] for p in pages)
    report.add("answers_per_s", answers / busy, "1/s", answers)
    calibrated_setups = [probe.scaled(a, b) for a, b in setups]
    report.add("setup_s", median(calibrated_setups), "s", len(setups))
    report.add("peak_rss_mb", rss_mb, "MB", 1)
    gaps = [g * factor[id(p)] for p in served for g in p.gaps_ms]
    report.note(
        f"answer_gap_ms p50={percentile(gaps, 0.5):.4f} p90={percentile(gaps, 0.9):.4f} "
        f"(n={len(gaps)}; the paper's delay, printed only: serve-mixed cannot "
        "measure it, so it is not a BENCHMARK.json metric)"
    )
    raw_busy = sum(p.finished - p.issued for p in pages)
    report.raw_note(
        [p.first_ms for p in served], [p.kth_ms for p in served],
        answers / raw_busy, [b - a for a, b in setups], calibrated_setups,
    )
    report.note(probe.summary())
    report.note(f"requests {raw_busy:.3f} s raw, {busy:.3f} s calibrated; {answers} answers, {len(pages)} requests")


def check_pages(report: Report, pages: list[Page], expected: dict, inject: bool) -> None:
    """Compare each page with its oracle bytes.

    ``inject`` corrupts the first answer received, which the self-test
    uses to prove that a wrong answer is counted.
    """
    report.attempted += len(pages)
    for index, page in enumerate(pages):
        got = serialize_answers(page.results)
        if inject and index == 0:
            got = corrupt(got)
        if page.error is not None:
            report.fail(f"{page.request}: raised {page.error}")
        elif got != expected[page.request]:
            report.fail(f"{page.request}: answers differ from the sets-kernel oracle")


def pin_pages(report: Report, workload: str, args, pages: list[Page]) -> None:
    """Check the digest of ``pages``' answers against the pinned one."""
    pin(report, workload, args, (b for page in pages for b in serialize_answers(page.results)))


def traced_passes(run_pass, probe: SpeedProbe) -> tuple["tracing.Tracer", list[Page], float]:
    """Untraced, traced, untraced: the same work three times, on one CPU.

    ``run_pass(tracer_or_None)`` returns the pass's pages, probing the
    speed between requests.  The tracing overhead compares the traced
    pass's calibrated request time with the mean of the two untraced
    passes around it, which cancels the warm-up a process gains over its
    first pass.
    """
    tracer = tracing.Tracer()
    tracer.install_library()
    with one_cpu():
        before = run_pass(None)
        tracer.active = True
        traced = run_pass(tracer)
        tracer.active = False
        after = run_pass(None)
    tracer.uninstall()

    def busy(pages: list[Page]) -> float:
        return sum(probe.scaled(p.issued, p.finished) for p in pages)

    overhead = busy(traced) / ((busy(before) + busy(after)) / 2) - 1.0
    return tracer, before + traced + after, overhead


def report_layers(report: Report, tracer: "tracing.Tracer", overhead: float) -> None:
    """Per-layer metrics of a traced pass; the service layers read 0 here."""
    for name, (value, unit, samples) in tracer.layer_metrics().items():
        report.add(name, value, unit, samples)
    report.absent(SERVICE_LAYERS)
    report.add("trace.overhead_share", overhead, "share", 3)
