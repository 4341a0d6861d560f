"""serve-mixed: a ``repro serve`` subprocess under a closed loop of clients.

The server runs the default process backend with nproc-1 worker seats
(at least one) and a fresh answer-prefix cache directory.  One
closed-loop client connection per seat sends its next request when the
previous terminal frame arrives, so no request waits for a seat; the
server, its seats and the clients run on one CPU per connection.  Each
connection alternates between raw TCP (``ServiceClient``) and HTTP
NDJSON (``GatewayClient``) request by request, so both doors carry the
same mix.  No request names a kernel: the wire default is what clients
get.

The service is measured from outside: client timings, terminal ``stats``
frames (``engine``, ``elapsed_seconds``) and ``/metrics`` deltas.  Client
timings are calibrated by a speed probe the connections run between
requests, on the CPU the server and its seats share with them (see
``speed``).
"""

from __future__ import annotations

import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.gateway.client import GatewayClient
from repro.service.client import ServiceClient
from repro.service.protocol import (
    AnswerFrame,
    ServiceRequest,
    StatsFrame,
    decode_token,
)

from .common import PER_LAYER, SERVICE_LAYERS, Report, median, percentile
from .inputs import SERVE_BLOCK, SERVE_K, serve_mixed_plan
from .oracle import corrupt, oracle_answers, pin
from .speed import SpeedProbe

DEADLINE_S = 60.0
#: Requests per second of ``--seconds``, over all connections, on a
#: 2-vCPU x86 VM (one seat, one connection).
REQUESTS_PER_SECOND = 65
#: Enough requests for a p90 with ten samples beyond it at any --seconds.
MIN_REQUESTS = 100
SETUP_REPEATS = 5
START_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
def _children(pid: int) -> set[int]:
    found: set[int] = set()
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    found.update(int(tok) for tok in fh.read().split())
            except OSError:
                continue
    except OSError:
        pass
    return found


def _descendants(pid: int) -> set[int]:
    out: set[int] = set()
    todo = [pid]
    while todo:
        for child in _children(todo.pop()):
            if child not in out:
                out.add(child)
                todo.append(child)
    return out


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """``python -u -m repro serve`` on free ports with its own cache dir."""

    def __init__(self, workers: int, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        os.makedirs(cache_dir)
        # -u: the ports are announced with print(), which a pipe buffers.
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve",
                "--port", "0", "--http", "0",
                "--workers", str(workers), "--cache-dir", cache_dir,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: list[str] = []
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.tcp_port, self.http_port = self._ports()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _ports(self) -> tuple[int, int]:
        ports: dict[str, int] = {}
        deadline = time.monotonic() + START_TIMEOUT_S
        while len(ports) < 2:
            line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            if line is None:
                raise RuntimeError("server exited before announcing its ports: " + "".join(self.output))
            match = re.search(r"repro (service|http gateway) listening on .*:(\d+)$", line.strip())
            if match:
                ports[match.group(1)] = int(match.group(2))
        return ports["service"], ports["http gateway"]

    def _wait_healthy(self) -> None:
        gateway = GatewayClient("127.0.0.1", self.http_port, timeout=30.0)
        deadline = time.monotonic() + START_TIMEOUT_S
        while gateway.health().status != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the server and every process it started."""
        return sum(_vm_hwm_mb(pid) for pid in {self.proc.pid} | _descendants(self.proc.pid))

    def stop(self) -> list[str]:
        """SIGTERM, then check for a clean exit with no orphaned seats."""
        problems = []
        children = _descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
            if code != 0:
                problems.append(f"server exited with code {code}")
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            problems.append("server hung on SIGTERM")
        deadline = time.monotonic() + 10
        survivors = {pid for pid in children if _alive(pid)}
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = {pid for pid in survivors if _alive(pid)}
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if survivors:
            problems.append(f"orphaned processes {sorted(survivors)}")
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return problems


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    request: object  # inputs.ServeRequest
    door: str
    issued: float = 0.0
    arrivals: list[float] = field(default_factory=list)
    lines: list[bytes] = field(default_factory=list)
    finished: float = 0.0
    terminal: str = ""
    engine: str = ""
    elapsed_s: float = 0.0
    token: bytes | None = None
    error: str | None = None


def _service_request(req, token: bytes | None) -> ServiceRequest:
    deadline = {"deadline": DEADLINE_S}
    if req.kind == "resume":
        return ServiceRequest(op="enumerate", token=token, k=SERVE_K, **deadline)
    op = {"replay": "top", "fresh": "top", "head": "enumerate"}.get(req.kind, req.kind)
    return ServiceRequest(op=op, graph=req.graph, cost=req.cost, k=SERVE_K, **deadline)


def _send_tcp(port: int, request: ServiceRequest, out: Outcome) -> None:
    client = ServiceClient("127.0.0.1", port, timeout=DEADLINE_S + 30)
    out.issued = time.perf_counter()
    with client.open(request) as stream:
        for frame in stream:
            if isinstance(frame, AnswerFrame):
                out.arrivals.append(time.perf_counter())
                out.lines.append(frame.raw)
    out.finished = time.perf_counter()
    terminal = stream.terminal
    out.terminal = "stats" if isinstance(terminal, StatsFrame) else type(terminal).__name__
    if isinstance(terminal, StatsFrame):
        out.engine = terminal.engine
        out.elapsed_s = terminal.elapsed_seconds
        out.token = terminal.checkpoint


def _send_http(port: int, request: ServiceRequest, out: Outcome) -> None:
    client = GatewayClient("127.0.0.1", port, timeout=DEADLINE_S + 30)
    body = {k: v for k, v in request.to_frame().items() if k not in ("type", "v")}
    out.issued = time.perf_counter()
    stream = client.submit(body)
    try:
        for event, line in stream:
            if event == "answer":
                out.arrivals.append(time.perf_counter())
                out.lines.append(line)
    finally:
        stream.close()
    out.finished = time.perf_counter()
    terminal = stream.terminal or {}
    out.terminal = terminal.get("type", "none")
    if out.terminal == "stats":
        out.engine = terminal.get("engine", "")
        out.elapsed_s = terminal.get("elapsed_seconds", 0.0)
        raw = terminal.get("checkpoint")
        out.token = decode_token(raw) if raw is not None else None


DOORS = ("tcp", "http")


def _connection(server: Server, first_door: int, plan, outcomes: list, probe: SpeedProbe) -> None:
    """One closed-loop client: the next request leaves after the last
    ends, through the other door."""
    tokens: dict[str, bytes | None] = {}
    for i, req in enumerate(plan):
        probe.tick()
        door = DOORS[(first_door + i) % len(DOORS)]
        out = Outcome(request=req, door=door)
        outcomes.append(out)
        try:
            request = _service_request(req, tokens.get(req.chain))
            if door == "tcp":
                _send_tcp(server.tcp_port, request, out)
            else:
                _send_http(server.http_port, request, out)
            if req.kind in ("head", "resume"):
                tokens[req.chain] = out.token
        except Exception as exc:  # counted, never fatal to the run
            out.error = repr(exc)
            if req.kind in ("head", "resume"):
                tokens[req.chain] = None


def _fill(server: Server, hot) -> None:
    """Run the hot set live once, then until each request replays."""
    client = ServiceClient("127.0.0.1", server.tcp_port, timeout=DEADLINE_S + 30)
    for _name, graph, cost in hot:
        client.top(graph, cost, k=SERVE_K, deadline=DEADLINE_S)
    for _name, graph, cost in hot:
        for _attempt in range(50):
            if client.top(graph, cost, k=SERVE_K, deadline=DEADLINE_S).terminal.engine == "cache":
                break
            time.sleep(0.01)


def _timed(server: Server, plans, probe: SpeedProbe):
    """Every connection's plan in a closed loop; ``/metrics`` around it."""
    outcomes: list[list[Outcome]] = [[] for _ in plans]
    before = scrape(server)
    threads = [
        threading.Thread(
            target=_connection,
            args=(server, i, plan, outcomes[i], probe),
        )
        for i, plan in enumerate(plans)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    probe.probe()
    after = scrape(server)
    return outcomes, wall, before, after, server.peak_rss_mb()


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^(repro_[a-z_]+)(\{[^}]*\})? (\S+)$")


def scrape(server: Server) -> dict[str, float]:
    text = GatewayClient("127.0.0.1", server.http_port, timeout=30.0).metrics()
    out = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            out[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return out


def _delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _serve(args, report: Report, workers: int, hot, plans, probe: SpeedProbe):
    """``SETUP_REPEATS`` set-ups on fresh servers and cache directories;
    the timed phase runs on the middle one, so the set-up samples
    straddle it.  The probe runs before and after each set-up."""
    repeats, timed_index = (1, 0) if args.tiny else (SETUP_REPEATS, SETUP_REPEATS // 2)
    setups: list[tuple[float, float]] = []
    for index in range(repeats):
        cache_dir = os.path.join(args.scratch, f"serve-cache-{index}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        probe.burst()
        started = time.perf_counter()
        server = Server(workers, cache_dir)
        try:
            _fill(server, hot)
            setups.append((started, time.perf_counter()))
            probe.burst()
            if index == timed_index:
                timed = _timed(server, plans, probe)
        finally:
            for problem in server.stop():
                report.fail(f"server {index}: {problem}")
    return setups, timed


def run(args, report: Report) -> None:
    nproc = os.cpu_count() or 1
    workers = max(1, nproc - 1)
    connections = workers
    total = len(SERVE_BLOCK) if args.tiny else max(MIN_REQUESTS, args.seconds * REQUESTS_PER_SECOND)
    hot, plans = serve_mixed_plan(args.seed, connections, -(-total // connections))
    # A connection's request runs one step at a time (client, server loop,
    # seat), so the benchmark process, the server and its seats share one
    # CPU per connection: a step hands over to the next by a context switch
    # on that CPU, not by a wake-up across CPUs, which on a VM costs 0.1-0.9
    # ms and varies with the host's load.  The server inherits the set; the
    # oracle gets every CPU back.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:connections])
    report.note(
        f"server: {workers} worker seat(s); {connections} closed-loop "
        f"connection(s); on CPU(s) {cpus[:connections]}"
    )
    probe = SpeedProbe()
    try:
        setups, (outcomes, wall, before, after, rss) = _serve(args, report, workers, hot, plans, probe)
    finally:
        os.sched_setaffinity(0, cpus)

    flat = [out for per in outcomes for out in per]
    served = [o for o in flat if o.arrivals and o.error is None]
    first = [1000.0 * (o.arrivals[0] - o.issued) for o in served]
    kth = [1000.0 * (o.arrivals[-1] - o.issued) for o in served]
    answers = sum(len(o.lines) for o in flat)
    if args.trace:
        _layers(report, flat, served, before, after)
    else:
        # Calibrated time; a closed loop of C connections keeps C requests
        # in flight, so the busy time is the requests' time over C.
        factor = {id(o): probe.factor(o.issued, o.finished) for o in flat if o.finished}
        report.latency("first_answer_ms", [t * factor[id(o)] for t, o in zip(first, served)])
        report.latency("kth_answer_ms", [t * factor[id(o)] for t, o in zip(kth, served)])
        busy = sum((o.finished - o.issued) * factor[id(o)] for o in flat if o.finished) / connections
        raw_busy = sum(o.finished - o.issued for o in flat if o.finished) / connections
        report.add("answers_per_s", answers / busy, "1/s", answers)
        calibrated_setups = [probe.scaled(a, b) for a, b in setups]
        report.add("setup_s", median(calibrated_setups), "s", len(setups))
        report.add("peak_rss_mb", rss, "MB", 1 + workers)
        report.raw_note(first, kth, answers / raw_busy, [b - a for a, b in setups], calibrated_setups)
        report.note(probe.summary())
    classes = {}
    for o in flat:
        classes[o.request.kind] = classes.get(o.request.kind, 0) + 1
    report.note(f"request mix {dict(sorted(classes.items()))}; replayed {sum(o.engine == 'cache' for o in flat)}")
    report.note(f"timed phase {wall:.3f} s, {answers} answers, {len(flat)} requests")
    started = time.perf_counter()
    _check(report, args, flat)
    report.note(f"oracle check {time.perf_counter() - started:.1f} s")


def _layers(report: Report, flat, served, before: dict, after: dict) -> None:
    def p50(values) -> tuple[float, int]:
        values = list(values)
        return percentile(values, 0.5), len(values)

    def first_ms(o) -> float:
        return 1000.0 * (o.arrivals[0] - o.issued)

    attempted = len(flat)
    served_from_cache = _delta(before, after, "repro_answers_served_total")
    report.add("cache.answers_served_share", served_from_cache / attempted, "share", attempted)
    report.add("cache.answers_stores", _delta(before, after, 'repro_disk_cache_stores_total{kind="answers"}'), "count", 1)
    report.add("cache.context_hits", _delta(before, after, 'repro_disk_cache_hits_total{kind="context"}'), "count", 1)
    report.add("cache.context_misses", _delta(before, after, 'repro_disk_cache_misses_total{kind="context"}'), "count", 1)
    slices = _delta(before, after, "repro_slice_seconds_count")
    slice_s = _delta(before, after, "repro_slice_seconds_sum")
    report.add("scheduler.slices", slices, "count", int(slices))
    report.add("scheduler.slice_ms_mean", 1000.0 * slice_s / slices if slices else 0.0, "ms", int(slices))
    live = [o for o in served if o.engine not in ("cache", "")]
    value, n = p50(1000.0 * (o.finished - o.issued - o.elapsed_s) for o in live)
    report.add("serve.overhead_ms_p50", value, "ms", n)
    report.add("workers.respawns", _delta(before, after, "repro_worker_respawns_total"), "count", 1)
    for door in ("tcp", "http"):
        value, n = p50(first_ms(o) for o in served if o.door == door)
        report.add(f"serve.{door}.first_answer_ms_p50", value, "ms", n)
    value, n = p50(first_ms(o) for o in served if o.engine == "cache")
    report.add("serve.replay.first_answer_ms_p50", value, "ms", n)
    value, n = p50(first_ms(o) for o in live)
    report.add("serve.live.first_answer_ms_p50", value, "ms", n)
    value, n = p50(1000.0 * (o.arrivals[-1] - o.issued) for o in served if o.request.kind == "resume")
    report.add("serve.resume.kth_answer_ms_p50", value, "ms", n)
    # Library layers run inside the server, not in this process; the
    # service is read from outside, so no wrapper adds overhead.
    report.absent(
        name for name, _unit in PER_LAYER
        if name not in SERVICE_LAYERS and name != "trace.overhead_share"
    )
    report.add("trace.overhead_share", 0.0, "share", 0)
    respawns = _delta(before, after, "repro_worker_respawns_total")
    report.split_check(
        "serve-mixed replays from the answer cache with no respawn",
        served_from_cache > 0 and respawns == 0,
        f"answers_served={served_from_cache:.0f}, respawns={respawns:.0f}",
    )


def _key(req) -> tuple:
    """Requests with equal keys expect equal answers."""
    return (req.kind, req.chain or req.rid, req.cost)


def _check(report: Report, args, flat) -> None:
    """Every request against the sets-kernel oracle, as frame bytes."""
    chains: dict[str, tuple] = {}
    for o in flat:
        if o.request.kind in ("head", "resume"):
            _graph, _cost, pages = chains.get(o.request.chain, (None, None, 0))
            chains[o.request.chain] = (o.request.graph, o.request.cost, max(pages, o.request.page + 1))
    keys: dict[tuple, tuple] = {}
    for chain, (graph, cost, pages) in chains.items():
        keys[("chain", chain)] = ("ranked", graph, cost, pages * SERVE_K, None)
    for o in flat:
        req = o.request
        if req.kind in ("replay", "fresh", "decompositions"):
            task_kind = "decompositions" if req.kind == "decompositions" else "ranked"
            keys.setdefault(_key(req), (task_kind, req.graph, req.cost, SERVE_K, None))
    solved = dict(zip(keys, oracle_answers(list(keys.values()))))

    def expected(req) -> list[bytes]:
        if req.kind in ("head", "resume"):
            return solved[("chain", req.chain)][req.page * SERVE_K:(req.page + 1) * SERVE_K]
        return solved[_key(req)]

    report.attempted += len(flat)
    for index, o in enumerate(flat):
        lines = corrupt(o.lines) if args.inject_wrong_answer and index == 0 else o.lines
        if o.error is not None:
            report.fail(f"{o.request.rid}: raised {o.error}")
        elif o.terminal != "stats":
            report.fail(f"{o.request.rid}: ended with a {o.terminal} frame")
        elif lines != expected(o.request):
            report.fail(f"{o.request.rid} ({o.request.kind}): answers differ from the sets-kernel oracle")
    pin(report, "serve-mixed", args, (line for o in flat for line in o.lines))

