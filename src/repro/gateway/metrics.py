"""Prometheus text-format rendering of the service counters.

Two ingredient dicts, rendered into one exposition page:

* :meth:`EnumerationScheduler.metrics_snapshot` — cheap event-loop
  counters (queue depth, per-kind admissions, the slice-latency
  histogram, backend telemetry like worker respawns); always present.
* :meth:`EnumerationScheduler.service_stats` — the blocking per-worker
  introspection payload, whose aggregated disk-cache counters
  (hit/miss/store/evict/corrupt) feed the cache metrics.  A scrape
  racing a worker crash may miss it; cache series are simply absent
  from that scrape rather than failing the page.
"""

from __future__ import annotations

PREFIX = "repro"

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Page:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def metric(
        self,
        name: str,
        kind: str,
        help_text: str,
        samples: list[tuple[dict[str, str] | None, float]],
    ) -> None:
        full = f"{PREFIX}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} {kind}")
        for labels, value in samples:
            if labels:
                rendered = ",".join(
                    f'{key}="{val}"' for key, val in sorted(labels.items())
                )
                self.lines.append(f"{full}{{{rendered}}} {_fmt(value)}")
            else:
                self.lines.append(f"{full} {_fmt(value)}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_metrics(snapshot: dict, service: dict | None = None) -> str:
    """The ``/metrics`` page for one scheduler snapshot."""
    page = _Page()
    page.metric(
        "jobs_admitted_total", "counter",
        "Jobs admitted to the scheduler since start.",
        [(None, snapshot["admitted"])],
    )
    page.metric(
        "jobs_completed_total", "counter",
        "Jobs fully wound down (terminal frame delivered).",
        [(None, snapshot["completed"])],
    )
    page.metric(
        "jobs_by_kind_total", "counter",
        "Admitted jobs by operation kind.",
        [({"op": op}, count)
         for op, count in sorted(snapshot["jobs_by_op"].items())],
    )
    page.metric(
        "jobs_active", "gauge",
        "Jobs admitted but not yet wound down.",
        [(None, snapshot["active"])],
    )
    page.metric(
        "answers_served_total", "counter",
        "Jobs satisfied from the answer-prefix disk cache without a "
        "worker seat.",
        [(None, snapshot.get("answers_served", 0))],
    )
    page.metric(
        "queue_depth", "gauge",
        "Admitted jobs waiting for a worker slot.",
        [(None, snapshot["queue_depth"])],
    )
    page.metric(
        "worker_slots", "gauge",
        "Slice slots by state.",
        [
            ({"state": "free"}, snapshot["slots_free"]),
            (
                {"state": "busy"},
                snapshot["slots_total"] - snapshot["slots_free"],
            ),
        ],
    )

    hist = snapshot["slice_seconds"]
    cumulative = 0
    buckets: list[tuple[dict[str, str] | None, float]] = []
    for bound, count in zip(hist["bounds"], hist["counts"]):
        cumulative += count
        buckets.append(({"le": _fmt(float(bound))}, cumulative))
    cumulative += hist["counts"][-1]
    buckets.append(({"le": "+Inf"}, cumulative))
    page.metric(
        "slice_seconds", "histogram",
        "Wall-clock latency of one executor slice.",
        [],
    )
    for labels, value in buckets:
        rendered = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
        page.lines.append(
            f"{PREFIX}_slice_seconds_bucket{{{rendered}}} {_fmt(value)}"
        )
    page.lines.append(f"{PREFIX}_slice_seconds_sum {_fmt(hist['sum'])}")
    page.lines.append(f"{PREFIX}_slice_seconds_count {_fmt(hist['count'])}")

    telemetry = snapshot.get("backend_telemetry") or {}
    backend_label = {"backend": snapshot["backend"]}
    page.metric(
        "backend_info", "gauge",
        "Execution backend of this scheduler (value is always 1).",
        [(backend_label, 1)],
    )

    if "workers" in telemetry:
        page.metric(
            "worker_processes", "gauge",
            "Worker seats in the process pool.",
            [(None, telemetry["workers"])],
        )
    if "respawns" in telemetry:
        page.metric(
            "worker_respawns_total", "counter",
            "Worker seats respawned after a crash.",
            [(None, telemetry["respawns"])],
        )

    if service is not None:
        cache = service.get("cache") or {}
        page.metric(
            "disk_cache_enabled", "gauge",
            "Whether a persistent artifact store is attached.",
            [(None, 1 if cache.get("enabled") else 0)],
        )
        counter_names = (
            ("hits", "disk_cache_hits_total", "Artifact-store hits."),
            ("misses", "disk_cache_misses_total", "Artifact-store misses."),
            ("stores", "disk_cache_stores_total", "Artifacts written."),
            (
                "evictions",
                "disk_cache_evictions_total",
                "Artifacts evicted under the byte cap.",
            ),
            (
                "corrupt",
                "disk_cache_corrupt_total",
                "Corrupt artifacts dropped on read.",
            ),
        )
        kinds = cache.get("kinds") or {}
        for key, name, help_text in counter_names:
            page.metric(
                name, "counter", help_text,
                [({"kind": kind}, counters.get(key, 0))
                 for kind, counters in sorted(kinds.items())],
            )
        workers = service.get("workers") or []
        alive_rows = [row for row in workers if "pid" in row]
        if alive_rows:
            page.metric(
                "worker_active_jobs", "gauge",
                "Jobs currently pinned per worker seat.",
                [
                    ({"worker": str(row["worker"])}, row["active_jobs"])
                    for row in alive_rows
                    if row.get("active_jobs") is not None
                ],
            )
    return page.render()
