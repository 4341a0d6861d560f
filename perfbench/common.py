"""Metric catalog, percentiles and the result line every workload prints.

The catalog is the single list of metric names and units; ``BENCHMARK.json``
repeats it (the self-test checks that the two agree).  End-to-end metrics
come from untraced runs (``--trace 0``), per-layer metrics from traced
runs (``--trace 1``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource

#: ``(name, unit)`` of every end-to-end metric; every workload reports all.
END_TO_END = (
    ("first_answer_ms_p50", "ms"),
    ("first_answer_ms_p90", "ms"),
    ("kth_answer_ms_p50", "ms"),
    ("kth_answer_ms_p90", "ms"),
    ("answers_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of every per-layer metric.  A layer a workload does
#: not run in the benchmark's own process reads 0 there (the library
#: layers in serve-mixed, the service layers in the library workloads).
PER_LAYER = (
    ("context.builds", "count"),
    ("context.build_ms", "ms"),
    ("context.minseps_ms", "ms"),
    ("context.pmcs_ms", "ms"),
    ("context.pmcs_found", "count"),
    ("preprocess.plan_ms", "ms"),
    ("preprocess.composed_share", "share"),
    ("base_dp.calls", "count"),
    ("base_dp.ms", "ms"),
    ("expand.calls", "count"),
    ("expand.ms", "ms"),
    ("expand.useful_share", "share"),
    ("evaluate.calls", "count"),
    ("evaluate.ms", "ms"),
    ("evaluate.feasible_share", "share"),
    ("stream.self_ms", "ms"),
    ("session.open_self_ms", "ms"),
    ("api.checkpoint_ms", "ms"),
    ("api.token_bytes_p50", "bytes"),
    ("cache.answers_served_share", "share"),
    ("cache.answers_stores", "count"),
    ("cache.context_hits", "count"),
    ("cache.context_misses", "count"),
    ("scheduler.slices", "count"),
    ("scheduler.slice_ms_mean", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("workers.respawns", "count"),
    ("serve.tcp.first_answer_ms_p50", "ms"),
    ("serve.http.first_answer_ms_p50", "ms"),
    ("serve.replay.first_answer_ms_p50", "ms"),
    ("serve.live.first_answer_ms_p50", "ms"),
    ("serve.resume.kth_answer_ms_p50", "ms"),
    ("trace.overhead_share", "share"),
)

#: Per-layer metrics read from outside the server; the rest time library
#: calls in the benchmark's own process.
SERVICE_LAYERS = tuple(
    name for name, _unit in PER_LAYER
    if name.split(".")[0] in ("cache", "scheduler", "serve", "workers")
)

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile of ``values`` (0 for no values)."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def tail_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave ``MIN_TAIL_SAMPLES`` beyond quantile ``q``."""
    return n * (1.0 - q) >= MIN_TAIL_SAMPLES - 1e-9


def median(values) -> float:
    return percentile(values, 0.5)


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """What a result depends on besides the code: cores, Python, numpy."""
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    from repro.api import Session
    from repro.service.protocol import ServiceRequest

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": has_numpy,
        "library_kernel": Session().kernel_name,
        "wire_kernel": ServiceRequest(op="stats").kernel,
    }


class Report:
    """Collects one run's metrics and prints them, the JSON line last."""

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def latency(self, name: str, values) -> None:
        """``name_p50`` and ``name_p90`` of ``values`` with sample counts.

        Outside the tiny self-test mode, a percentile without enough
        samples beyond it is an error in the workload's sizing.
        """
        values = list(values)
        for label, q in (("p50", 0.5), ("p90", 0.9)):
            if not tail_supported(len(values), q) and not self.tiny:
                raise RuntimeError(
                    f"{name}_{label}: {len(values)} samples leave fewer than "
                    f"{MIN_TAIL_SAMPLES} beyond the percentile"
                )
            self.add(f"{name}_{label}", percentile(values, q), "ms", len(values))

    def absent(self, names) -> None:
        """Layers this workload does not run in the benchmark's process
        read 0, with no samples."""
        units = dict(PER_LAYER)
        for name in names:
            self.add(name, 0.0, units[name], 0)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def raw_note(self, first_ms, kth_ms, answers_per_s: float, setups_s, calibrated_setups_s) -> None:
        """The raw wall-time figures behind the calibrated metrics."""
        self.note(
            "raw wall time: "
            f"first_answer_ms p50={percentile(first_ms, 0.5):.4f} p90={percentile(first_ms, 0.9):.4f} "
            f"kth_answer_ms p50={percentile(kth_ms, 0.5):.4f} p90={percentile(kth_ms, 0.9):.4f} "
            f"answers_per_s={answers_per_s:.4f} setup_s={median(setups_s):.4f}"
        )
        self.note(
            "setup_s samples raw " + " ".join(f"{s:.4f}" for s in setups_s)
            + " calibrated " + " ".join(f"{s:.4f}" for s in calibrated_setups_s)
        )

    def split_check(self, label: str, holds: bool, detail: str) -> None:
        """A predicted per-layer split: one attempted check, failed when
        the split does not hold."""
        self.attempted += 1
        if not holds:
            self.fail(f"split-check {label} does not hold ({detail})")
        self.note(f"split-check {label}: {'holds' if holds else 'FAILS'} ({detail})")

    def emit(self, trace: bool) -> None:
        catalog = PER_LAYER if trace else END_TO_END
        missing = [name for name, _unit in catalog if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        for text in self.notes:
            print(f"note {text}")
        for what in self.failures[:20]:
            print(f"failure {what}")
        share = self.failed / self.attempted if self.attempted else 0.0
        print(
            f"failed_share {share:.6f} ({self.failed} failed of "
            f"{self.attempted} attempted)"
        )
        shown = {}
        for name, unit in catalog:
            value, got_unit, samples = self.metrics[name]
            if got_unit != unit:
                raise RuntimeError(f"{name}: unit {got_unit!r}, expected {unit!r}")
            print(f"metric {name} = {value:.6g} {unit} (n={samples})")
            shown[name] = {"value": value, "unit": unit}
        print(
            json.dumps(
                {
                    "correct": self.failed == 0 and self.attempted > 0,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": shown,
                }
            )
        )
